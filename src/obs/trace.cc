#include "obs/trace.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/metrics.h"

namespace eca::obs {

std::uint64_t steady_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceSession::TraceSession(TraceOptions options)
    : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  buffer_.resize(options_.capacity);
}

TraceSession::~TraceSession() {
  if (!options_.path.empty() && !flushed_) flush();
}

void TraceSession::record(const char* name, std::uint64_t start_ns,
                          std::uint64_t dur_ns, const char* arg_name,
                          double arg_value) {
  const std::size_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= buffer_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& ev = buffer_[idx];
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.tid = static_cast<std::uint32_t>(internal::thread_ordinal());
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
}

std::size_t TraceSession::recorded() const {
  const std::size_t claimed = cursor_.load(std::memory_order_relaxed);
  return claimed < buffer_.size() ? claimed : buffer_.size();
}

std::size_t TraceSession::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void TraceSession::flush_to(std::ostream& os,
                            const MetricsSnapshot* totals) const {
  const std::size_t n = recorded();
  os << "[\n";
  const char* separator = "";
  char line[256];
  const auto emit = [&](int written) {
    if (written < 0) return;
    os << separator << line;
    separator = ",\n";
  };
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& ev = buffer_[i];
    const double ts_us = static_cast<double>(ev.start_ns) * 1e-3;
    const double dur_us = static_cast<double>(ev.dur_ns) * 1e-3;
    if (ev.arg_name != nullptr) {
      emit(std::snprintf(
          line, sizeof(line),
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%.17g}}",
          ev.name, options_.pid, ev.tid, ts_us, dur_us, ev.arg_name,
          ev.arg_value));
    } else {
      emit(std::snprintf(
          line, sizeof(line),
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f}",
          ev.name, options_.pid, ev.tid, ts_us, dur_us));
    }
  }
  if (totals != nullptr) {
    const double ts_us = static_cast<double>(now()) * 1e-3;
    const char* format =
        "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%u,\"tid\":0,"
        "\"ts\":%.3f,\"args\":{\"value\":%s}}";
    char value[32];
    for (const auto& [name, total] : totals->counters) {
      std::snprintf(value, sizeof(value), "%llu",
                    static_cast<unsigned long long>(total));
      emit(std::snprintf(line, sizeof(line), format, name.c_str(),
                         options_.pid, ts_us, value));
    }
    for (const auto& [name, total] : totals->double_counters) {
      std::snprintf(value, sizeof(value), "%.17g", total);
      emit(std::snprintf(line, sizeof(line), format, name.c_str(),
                         options_.pid, ts_us, value));
    }
  }
  os << (separator[0] != '\0' ? "\n]\n" : "]\n");
}

bool TraceSession::flush() {
  if (options_.path.empty()) return false;
  std::ofstream os(options_.path);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n",
                 options_.path.c_str());
    return false;
  }
  const MetricsSnapshot totals = MetricsRegistry::global().snapshot();
  flush_to(os, &totals);
  flushed_ = static_cast<bool>(os);
  return flushed_;
}

namespace {

std::mutex g_trace_mutex;
// Owned global session; a static unique_ptr so the destructor (and its
// flush) runs at exit after main returns.
std::unique_ptr<TraceSession>& global_trace_slot() {
  static std::unique_ptr<TraceSession> slot;
  return slot;
}

std::atomic<TraceSession*> g_trace{nullptr};
std::once_flag g_trace_init;

void init_global_trace_from_env() {
  const char* path = std::getenv("ECA_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  TraceOptions options;
  options.path = path;
  if (const std::size_t cap = trace_cap_from_env(); cap > 0) {
    options.capacity = cap;
  }
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  global_trace_slot() = std::make_unique<TraceSession>(std::move(options));
  g_trace.store(global_trace_slot().get(), std::memory_order_release);
}

}  // namespace

std::size_t trace_cap_from_env() {
  const char* cap = std::getenv("ECA_TRACE_CAP");
  if (cap == nullptr) return 0;
  // Fail-fast contract shared by every ECA_* knob: a set-but-invalid cap
  // (previously silently ignored by atoll) must not run a configuration
  // the user did not ask for.
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(cap, &end, 10);
  if (errno != 0 || end == cap || *end != '\0' || parsed < 1) {
    std::fprintf(stderr,
                 "error: ECA_TRACE_CAP='%s' is invalid (must be an integer "
                 ">= 1; unset it for the default)\n",
                 cap);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

TraceSession* global_trace() {
  std::call_once(g_trace_init, init_global_trace_from_env);
  return g_trace.load(std::memory_order_acquire);
}

TraceSession* install_global_trace(TraceOptions options) {
  std::call_once(g_trace_init, [] {});  // suppress env init from now on
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  global_trace_slot() = std::make_unique<TraceSession>(std::move(options));
  g_trace.store(global_trace_slot().get(), std::memory_order_release);
  return global_trace_slot().get();
}

void drop_global_trace() {
  std::call_once(g_trace_init, [] {});
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  global_trace_slot().reset();
  g_trace.store(nullptr, std::memory_order_release);
}

}  // namespace eca::obs
