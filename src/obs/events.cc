#include "obs/events.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

namespace eca::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kExperimentBegin:
      return "experiment_begin";
    case EventKind::kRepBegin:
      return "rep_begin";
    case EventKind::kRunBegin:
      return "run_begin";
    case EventKind::kSlot:
      return "slot";
    case EventKind::kSolve:
      return "solve";
    case EventKind::kRunEnd:
      return "run_end";
    case EventKind::kResult:
      return "result";
    case EventKind::kRepEnd:
      return "rep_end";
    case EventKind::kExperimentEnd:
      return "experiment_end";
  }
  return "unknown";
}

EventLog::EventLog(EventLogOptions options) : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  buffer_.resize(options_.capacity);
}

EventLog::~EventLog() {
  if (!options_.path.empty() && !flushed_) flush();
}

void EventLog::record(const EventRecord& event) {
  const std::size_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= buffer_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer_[idx] = event;
}

std::size_t EventLog::recorded() const {
  const std::size_t claimed = cursor_.load(std::memory_order_relaxed);
  return claimed < buffer_.size() ? claimed : buffer_.size();
}

std::size_t EventLog::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

namespace {

// Labels are short internal identifiers, but the writer must never emit
// invalid JSON for an unusual one.
void write_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

void write_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void write_event(std::ostream& os, std::size_t seq, const EventRecord& ev) {
  os << "{\"seq\":" << seq << ",\"kind\":\"" << to_string(ev.kind) << '"';
  const auto label = [&os, &ev](const char* field) {
    os << ",\"" << field << "\":\"";
    write_escaped(os, ev.label);
    os << '"';
  };
  const auto num = [&os](const char* field, std::int64_t v) {
    os << ",\"" << field << "\":" << v;
  };
  const auto real = [&os](const char* field, double v) {
    os << ",\"" << field << "\":";
    write_double(os, v);
  };
  const auto flag = [&os](const char* field, bool v) {
    os << ",\"" << field << "\":" << (v ? "true" : "false");
  };
  switch (ev.kind) {
    case EventKind::kExperimentBegin:
      label("label");
      num("repetitions", ev.a);
      num("algorithms", ev.b);
      break;
    case EventKind::kRepBegin:
      num("rep", ev.a);
      real("offline_cost", ev.x);
      break;
    case EventKind::kRunBegin:
      label("algorithm");
      num("clouds", ev.a);
      num("users", ev.b);
      num("slots", ev.c);
      break;
    case EventKind::kSlot:
      num("slot", ev.a);
      real("cost_operation", ev.x);
      real("cost_service_quality", ev.y);
      real("cost_reconfiguration", ev.z);
      real("cost_migration", ev.w);
      break;
    case EventKind::kSolve:
      num("slot", ev.a);
      num("newton_iterations", ev.b);
      num("mu_steps", ev.c);
      flag("warm_started", (ev.d & kSolveWarmStarted) != 0);
      flag("warm_fallback", (ev.d & kSolveWarmFallback) != 0);
      real("kkt_comp_avg", ev.x);
      real("kkt_dual_residual", ev.y);
      break;
    case EventKind::kRunEnd:
      label("algorithm");
      num("slots", ev.a);
      num("newton_iterations", ev.b);
      num("warm_fallback_slots", ev.c);
      num("warm_started_slots", ev.d);
      real("total_cost", ev.x);
      break;
    case EventKind::kResult:
      label("algorithm");
      num("rep", ev.a);
      real("cost", ev.x);
      real("ratio", ev.y);
      break;
    case EventKind::kRepEnd:
      num("rep", ev.a);
      break;
    case EventKind::kExperimentEnd:
      num("simulations", ev.a);
      break;
  }
  os << "}\n";
}

}  // namespace

void emit_run(EventLog* log, const RunTelemetry& run) {
  if (log == nullptr) return;
  EventRecord begin;
  begin.kind = EventKind::kRunBegin;
  begin.set_label(run.algorithm);
  begin.a = static_cast<std::int64_t>(run.num_clouds);
  begin.b = static_cast<std::int64_t>(run.num_users);
  begin.c = static_cast<std::int64_t>(run.num_slots);
  log->record(begin);
  EventRecord end;
  end.kind = EventKind::kRunEnd;
  end.set_label(run.algorithm);
  end.a = static_cast<std::int64_t>(run.slots.size());
  end.x = run.total_cost;
  for (const SlotTelemetry& slot : run.slots) {
    EventRecord ev;
    ev.kind = EventKind::kSlot;
    ev.a = static_cast<std::int64_t>(slot.slot);
    ev.x = slot.cost_operation;
    ev.y = slot.cost_service_quality;
    ev.z = slot.cost_reconfiguration;
    ev.w = slot.cost_migration;
    log->record(ev);
    if (!slot.has_solve) continue;
    const SolveTelemetry& solve = slot.solve;
    ev = EventRecord{};
    ev.kind = EventKind::kSolve;
    ev.a = static_cast<std::int64_t>(slot.slot);
    ev.b = solve.newton_iterations;
    ev.c = solve.mu_steps;
    ev.d = (solve.warm_started ? kSolveWarmStarted : 0) |
           (solve.warm_fallback ? kSolveWarmFallback : 0);
    ev.x = solve.kkt_comp_avg;
    ev.y = solve.kkt_dual_residual;
    log->record(ev);
    end.b += solve.newton_iterations;
    end.c += solve.warm_fallback ? 1 : 0;
    end.d += solve.warm_started ? 1 : 0;
  }
  log->record(end);
}

void EventLog::flush_to(std::ostream& os) const {
  const std::size_t n = recorded();
  os << "{\"schema\":\"" << kEventsSchema << "\",\"events\":" << n
     << ",\"dropped\":" << dropped() << "}\n";
  for (std::size_t i = 0; i < n; ++i) write_event(os, i, buffer_[i]);
}

bool EventLog::flush() {
  if (options_.path.empty()) return false;
  std::ofstream os(options_.path);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write events to %s\n",
                 options_.path.c_str());
    return false;
  }
  flush_to(os);
  flushed_ = static_cast<bool>(os);
  return flushed_;
}

namespace {

std::mutex g_events_mutex;
// Owned global log; a static unique_ptr so the destructor (and its flush)
// runs at exit after main returns.
std::unique_ptr<EventLog>& global_events_slot() {
  static std::unique_ptr<EventLog> slot;
  return slot;
}

std::atomic<EventLog*> g_events{nullptr};
std::once_flag g_events_init;

void init_global_events_from_env() {
  EventLogOptions options;
  if (!events_options_from_env(options)) return;
  std::lock_guard<std::mutex> lock(g_events_mutex);
  global_events_slot() = std::make_unique<EventLog>(std::move(options));
  g_events.store(global_events_slot().get(), std::memory_order_release);
}

}  // namespace

bool events_options_from_env(EventLogOptions& options) {
  const char* path = std::getenv("ECA_EVENTS");
  if (path == nullptr) return false;
  // Fail-fast contract of every ECA_* knob: a set-but-useless value must
  // not silently run an unobserved configuration.
  if (path[0] == '\0') {
    std::fprintf(stderr,
                 "error: ECA_EVENTS is set but empty (must name the JSONL "
                 "output path; unset it to disable event streaming)\n");
    std::exit(2);
  }
  options.path = path;
  if (const char* cap = std::getenv("ECA_EVENTS_CAP")) {
    char* end = nullptr;
    const long long parsed = std::strtoll(cap, &end, 10);
    if (end == cap || *end != '\0' || parsed < 1) {
      std::fprintf(stderr,
                   "error: ECA_EVENTS_CAP='%s' is invalid (must be an "
                   "integer >= 1; unset it for the default %zu)\n",
                   cap, options.capacity);
      std::exit(2);
    }
    options.capacity = static_cast<std::size_t>(parsed);
  }
  // Fail fast on an unwritable path too — discovering it at exit would
  // silently lose the whole stream.
  {
    std::ofstream probe(options.path);
    if (!probe) {
      std::fprintf(stderr, "error: ECA_EVENTS='%s' is not writable\n",
                   options.path.c_str());
      std::exit(2);
    }
  }
  return true;
}

EventLog* global_events() {
  std::call_once(g_events_init, init_global_events_from_env);
  return g_events.load(std::memory_order_acquire);
}

EventLog* install_global_events(EventLogOptions options) {
  std::call_once(g_events_init, [] {});  // suppress env init from now on
  std::lock_guard<std::mutex> lock(g_events_mutex);
  global_events_slot() = std::make_unique<EventLog>(std::move(options));
  g_events.store(global_events_slot().get(), std::memory_order_release);
  return global_events_slot().get();
}

void drop_global_events() {
  std::call_once(g_events_init, [] {});
  std::lock_guard<std::mutex> lock(g_events_mutex);
  global_events_slot().reset();
  g_events.store(nullptr, std::memory_order_release);
}

}  // namespace eca::obs
