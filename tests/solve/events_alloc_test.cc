// Verifies the zero-allocation guarantee of event recording: EventLog::
// record() and every emit_* helper (emit_run included) must not touch the
// heap — like the metric handles pinned by solve/newton_alloc_test.cc —
// whether the record lands in the buffer or overflows into the drop
// counter. A counting global operator new makes the check exact.
//
// This TU replaces the global allocator, so it gets its own test binary.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/events.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eca::obs {
namespace {

EventLogOptions buffer_only(std::size_t capacity) {
  EventLogOptions options;
  options.path = "";
  options.capacity = capacity;
  return options;
}

// A one-slot run with solver stats: emit_run writes run_begin, slot, solve
// and run_end for it. Built before counting starts.
RunTelemetry one_slot_run() {
  RunTelemetry run;
  run.algorithm = "online-approx";
  run.num_clouds = 4;
  run.num_users = 10;
  run.num_slots = 1;
  SlotTelemetry& slot = run.slots.emplace_back();
  slot.cost_operation = 1.0;
  slot.has_solve = true;
  slot.solve.newton_iterations = 12;
  slot.solve.warm_started = true;
  return run;
}

// Drives every emitter once per round — the full payload surface,
// including the label-copying kinds (nine records).
void emit_round(EventLog* log, std::size_t round, const RunTelemetry& run) {
  emit_experiment_begin(log, "3pm", 3, 5);
  emit_rep_begin(log, round, 1.5);
  emit_run(log, run);
  emit_result(log, "online-approx", round, 4.5, 1.25);
  emit_rep_end(log, round);
  emit_experiment_end(log, 15);
}

TEST(EventsAlloc, RecordPathIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  EventLog log(buffer_only(1 << 12));  // buffer sized at construction
  const RunTelemetry run = one_slot_run();
  g_alloc_count.store(0);
  g_counting.store(true);
  for (std::size_t round = 0; round < 100; ++round) {
    emit_round(&log, round, run);
  }
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "event recording allocated on the hot path";
  EXPECT_EQ(log.recorded(), 900u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventsAlloc, OverflowDropPathIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  // Saturated log: every record() after the first 8 takes the drop-and-
  // count branch, which must be just as heap-silent — a full buffer on a
  // long run must not start allocating mid-trajectory.
  EventLog log(buffer_only(8));
  const RunTelemetry run = one_slot_run();
  g_alloc_count.store(0);
  g_counting.store(true);
  for (std::size_t round = 0; round < 100; ++round) {
    emit_round(&log, round, run);
  }
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "the drop path allocated on the hot path";
  EXPECT_EQ(log.recorded(), 8u);
  EXPECT_EQ(log.dropped(), 900u - 8u);
}

TEST(EventsAlloc, RunEndAggregationIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  // emit_run walks the per-slot records and aggregates the run_end totals
  // as it goes; build the run up front so only the emit itself is counted.
  RunTelemetry run;
  run.algorithm = "online-approx";
  run.slots.resize(64);
  for (std::size_t t = 0; t < run.slots.size(); ++t) {
    run.slots[t].slot = t;
    run.slots[t].has_solve = true;
    run.slots[t].solve.newton_iterations = static_cast<int>(t);
  }
  EventLog log(buffer_only(256));
  g_alloc_count.store(0);
  g_counting.store(true);
  emit_run(&log, run);
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
  EXPECT_EQ(log.recorded(), 2u + 2u * run.slots.size());
}

}  // namespace
}  // namespace eca::obs
