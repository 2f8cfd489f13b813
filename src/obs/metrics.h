// Process-wide metrics registry: integer and double counters, updated
// lock-free from any thread and read in-process (perfbench and the bench
// emitters diff snapshots; a trace session appends the end-of-run totals
// to its file as Chrome-trace counter events).
//
// Design contract (mirrors the experiment runner's determinism story):
//  * Every counter is sharded into kMetricShards cache-line-padded cells;
//    a thread updates only the cell of its own shard (thread-local
//    ordinal modulo kMetricShards), so increments never contend and never
//    tear. Snapshots merge cells in FIXED shard order (0, 1, ..., N-1) —
//    integer totals are exact regardless of scheduling, and double totals
//    are bit-deterministic whenever each double counter is fed from a
//    single thread (which is what the instrumentation in solve/algo keeps
//    to: the values that must be reproducible — iteration counts, cost
//    splits — are recorded by the thread driving the slot sequence, never
//    by the chunk workers, which only record wall-clock timings).
//  * Recording is unconditional: one relaxed atomic add per update.
//  * Handle acquisition (counter()/double_counter()) allocates and locks;
//    callers cache handles (function-local statics in hot code). add() on
//    a handle never allocates — this is what the counting-allocator test
//    in tests/solve/newton_alloc_test.cc pins down.
//
// This library links against nothing else in the repo (not even
// eca_common; it uses only the header-only common/check.h) so that
// eca_common itself can be instrumented.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace eca::obs {

inline constexpr std::size_t kMetricShards = 32;

namespace internal {
// Small dense per-thread ordinal (0, 1, 2, ... in first-touch order); also
// used by TraceSession as the tid of emitted spans.
std::size_t thread_ordinal();
inline std::size_t shard_index() { return thread_ordinal() % kMetricShards; }
// Portable fetch_add for atomic<double> (CAS loop; C++20 fetch_add for
// floating point is not yet universal).
inline void atomic_fadd(std::atomic<double>& cell, double v) {
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}
}  // namespace internal

// Number of distinct threads that have touched the metrics/trace layer so
// far (the high-water mark of the thread-ordinal allocator). Shard
// utilisation observability only: the value depends on the resolved worker
// counts, so it belongs in log lines — never in deterministic artifacts.
std::size_t threads_seen();

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) DoubleCell {
  std::atomic<double> value{0.0};
};

// Monotonically increasing integer total.
class Counter {
 public:
  void add(std::uint64_t v = 1) {
    cells_[internal::shard_index()].value.fetch_add(v,
                                                    std::memory_order_relaxed);
  }
  // Merged total, shards summed in fixed order.
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  void reset();

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::array<CounterCell, kMetricShards> cells_;
};

// Additive double total (e.g. accumulated cost or seconds). Deterministic
// across runs when fed from a single thread — see the file comment.
class DoubleCounter {
 public:
  void add(double v) {
    internal::atomic_fadd(cells_[internal::shard_index()].value, v);
  }
  [[nodiscard]] double total() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  void reset();

 private:
  friend class MetricsRegistry;
  explicit DoubleCounter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::array<DoubleCell, kMetricShards> cells_;
};

// Point-in-time merged view; metric order is registration order, which is
// itself deterministic for a fixed program (static-local handles register
// on first execution of their acquisition site).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> double_counters;

  // Lookup helpers; return fallback when the metric is absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] double double_counter(std::string_view name,
                                      double fallback = 0.0) const;
};

class MetricsRegistry {
 public:
  // The process-wide registry used by all ECA instrumentation.
  static MetricsRegistry& global();

  // Finds or creates a metric. Stable addresses for the process lifetime —
  // cache the reference. Registering the same name with two different kinds
  // is a programming error and aborts.
  Counter& counter(std::string_view name);
  DoubleCounter& double_counter(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  // Zeroes every cell of every counter, keeping the registrations (and the
  // handles pointing at them) valid. For per-run scoping and tests.
  void reset_values();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<DoubleCounter>> double_counters_;
};

}  // namespace eca::obs
