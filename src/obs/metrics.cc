#include "obs/metrics.h"

#include "common/check.h"

namespace eca::obs {
namespace internal {

namespace {
std::atomic<std::size_t> g_next_ordinal{0};
}  // namespace

std::size_t thread_ordinal() {
  thread_local const std::size_t ordinal =
      g_next_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace internal

std::size_t threads_seen() {
  return internal::g_next_ordinal.load(std::memory_order_relaxed);
}

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (const CounterCell& cell : cells_) {
    sum += cell.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::reset() {
  for (CounterCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

double DoubleCounter::total() const {
  double sum = 0.0;
  for (const DoubleCell& cell : cells_) {
    sum += cell.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void DoubleCounter::reset() {
  for (DoubleCell& cell : cells_) {
    cell.value.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

namespace {

template <typename T>
T* find_by_name(const std::vector<std::unique_ptr<T>>& metrics,
                std::string_view name) {
  for (const auto& metric : metrics) {
    if (metric->name() == name) return metric.get();
  }
  return nullptr;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Counter* existing = find_by_name(counters_, name)) return *existing;
  ECA_CHECK(find_by_name(double_counters_, name) == nullptr,
            "metric '", name, "' is already a double counter");
  counters_.emplace_back(new Counter(std::string(name)));
  return *counters_.back();
}

DoubleCounter& MetricsRegistry::double_counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (DoubleCounter* existing = find_by_name(double_counters_, name)) {
    return *existing;
  }
  ECA_CHECK(find_by_name(counters_, name) == nullptr,
            "metric '", name, "' is already a counter");
  double_counters_.emplace_back(new DoubleCounter(std::string(name)));
  return *double_counters_.back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& c : counters_) snap.counters.emplace_back(c->name(), c->total());
  snap.double_counters.reserve(double_counters_.size());
  for (const auto& c : double_counters_) {
    snap.double_counters.emplace_back(c->name(), c->total());
  }
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) c->reset();
  for (const auto& c : double_counters_) c->reset();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

double MetricsSnapshot::double_counter(std::string_view name,
                                       double fallback) const {
  for (const auto& [n, v] : double_counters) {
    if (n == name) return v;
  }
  return fallback;
}

}  // namespace eca::obs
