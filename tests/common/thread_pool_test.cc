#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace eca {
namespace {

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ThreadPool::parallel_for(hits.size(), threads, [&](std::size_t i) {
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool::parallel_for(0, 8, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ResolveThreadsIsAtLeastOne) {
  ::unsetenv("ECA_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
  ::setenv("ECA_THREADS", "0", 1);  // non-positive env fails fast
  EXPECT_EXIT(ThreadPool::resolve_threads(0), ::testing::ExitedWithCode(2),
              "ECA_THREADS");
  ::unsetenv("ECA_THREADS");
}

TEST(ThreadPool, ResolveSlotThreadsAppliesMinWorkFloor) {
  // Uncapped (cap_to_hardware=false): threads = min(requested,
  // work / min_work), never below 1 — tiny slots run serial, the cap
  // scales linearly, and ample work keeps the request. Exercised without
  // the hardware cap so the expectations hold on any machine.
  EXPECT_EQ(ThreadPool::resolve_slot_threads(8, 100, 1024, false), 1u);
  EXPECT_EQ(ThreadPool::resolve_slot_threads(8, 1024, 1024, false), 1u);
  EXPECT_EQ(ThreadPool::resolve_slot_threads(8, 4096, 1024, false), 4u);
  EXPECT_EQ(ThreadPool::resolve_slot_threads(8, 100000, 1024, false), 8u);
  // min_work=0 is treated as 1 (no division by zero).
  EXPECT_EQ(ThreadPool::resolve_slot_threads(4, 100, 0, false), 4u);
  // A serial request short-circuits regardless of work volume.
  EXPECT_EQ(ThreadPool::resolve_slot_threads(1, 100000, 1, false), 1u);
}

TEST(ThreadPool, ResolveSlotThreadsCapsAtHardwareConcurrency) {
  // Default policy (cap_to_hardware=true): CPU-bound assembly never gets
  // more workers than cores, whatever the request or work volume.
  const unsigned raw_hw = std::thread::hardware_concurrency();
  const std::size_t hw = raw_hw > 0 ? raw_hw : 1;
  EXPECT_EQ(ThreadPool::resolve_slot_threads(8, 100000, 1024),
            std::min<std::size_t>(8, hw));
  EXPECT_EQ(ThreadPool::resolve_slot_threads(
                static_cast<int>(hw) + 4, 1u << 30, 1),
            hw);
  // The min-work floor still applies under the cap.
  EXPECT_EQ(ThreadPool::resolve_slot_threads(static_cast<int>(hw) + 4, 100,
                                             1024),
            1u);
  // And lifting the cap honors the request verbatim.
  EXPECT_EQ(ThreadPool::resolve_slot_threads(static_cast<int>(hw) + 4,
                                             1u << 30, 1, false),
            hw + 4);
}

TEST(ThreadPool, ResolveLpThreadsPolicy) {
  // Explicit request > ECA_LP_THREADS > default 1 (serial).
  ::unsetenv("ECA_LP_THREADS");
  EXPECT_EQ(ThreadPool::resolve_lp_threads(), 1u);
  EXPECT_EQ(ThreadPool::resolve_lp_threads(6), 6u);
  ::setenv("ECA_LP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolve_lp_threads(0), 3u);
  EXPECT_EQ(ThreadPool::resolve_lp_threads(5), 5u);  // explicit wins
  ::setenv("ECA_LP_THREADS", "0", 1);  // non-positive env fails fast
  EXPECT_EXIT(ThreadPool::resolve_lp_threads(0), ::testing::ExitedWithCode(2),
              "ECA_LP_THREADS");
  ::unsetenv("ECA_LP_THREADS");
}

TEST(ThreadPool, ResolveLpThreadsAppliesWorkFloorAndHardwareCap) {
  ::unsetenv("ECA_LP_THREADS");
  // Uncapped: workers = min(requested, nnz / min_nnz), never below 1.
  EXPECT_EQ(ThreadPool::resolve_lp_threads(8, 1000, 32768, false), 1u);
  EXPECT_EQ(ThreadPool::resolve_lp_threads(8, 4 * 32768, 32768, false), 4u);
  EXPECT_EQ(ThreadPool::resolve_lp_threads(8, 1u << 30, 32768, false), 8u);
  EXPECT_EQ(ThreadPool::resolve_lp_threads(1, 1u << 30, 1, false), 1u);
  // min_work=0 is treated as 1.
  EXPECT_EQ(ThreadPool::resolve_lp_threads(4, 100, 0, false), 4u);
  // Default policy also caps at hardware concurrency.
  const unsigned raw_hw = std::thread::hardware_concurrency();
  const std::size_t hw = raw_hw > 0 ? raw_hw : 1;
  EXPECT_EQ(ThreadPool::resolve_lp_threads(static_cast<int>(hw) + 4,
                                           1u << 30, 1),
            hw);
}

TEST(ThreadPool, ResolveBaselineThreadsPolicy) {
  // Explicit request > ECA_BASELINE_THREADS > default 1 (serial).
  ::unsetenv("ECA_BASELINE_THREADS");
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(), 1u);
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(6), 6u);
  ::setenv("ECA_BASELINE_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(0), 3u);
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(5), 5u);  // explicit wins
  ::setenv("ECA_BASELINE_THREADS", "", 1);  // empty means unset
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(0), 1u);
  ::unsetenv("ECA_BASELINE_THREADS");
  // Work-aware overload: floor per worker, hardware cap optional.
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(8, 1000, 4096, false), 1u);
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(8, 4 * 4096, 4096, false),
            4u);
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(8, 1u << 30, 4096, false),
            8u);
  const unsigned raw_hw = std::thread::hardware_concurrency();
  const std::size_t hw = raw_hw > 0 ? raw_hw : 1;
  EXPECT_EQ(ThreadPool::resolve_baseline_threads(static_cast<int>(hw) + 4,
                                                 1u << 30, 1),
            hw);
}

TEST(ThreadPool, ResolveBaselineThreadsFailsFastOnInvalidEnv) {
  // Like every thread knob, ECA_BASELINE_THREADS exits with status 2 on any
  // set-but-invalid value: a typo must not silently run a serial sweep that
  // looks like a slow machine.
  ::setenv("ECA_BASELINE_THREADS", "many", 1);
  EXPECT_EXIT(ThreadPool::resolve_baseline_threads(),
              ::testing::ExitedWithCode(2), "ECA_BASELINE_THREADS");
  ::setenv("ECA_BASELINE_THREADS", "0", 1);
  EXPECT_EXIT(ThreadPool::resolve_baseline_threads(),
              ::testing::ExitedWithCode(2), "ECA_BASELINE_THREADS");
  ::setenv("ECA_BASELINE_THREADS", "-2", 1);
  EXPECT_EXIT(ThreadPool::resolve_baseline_threads(),
              ::testing::ExitedWithCode(2), "ECA_BASELINE_THREADS");
  ::unsetenv("ECA_BASELINE_THREADS");
}

TEST(ThreadPool, SlotMinChunkReadsEnv) {
  ::unsetenv("ECA_SLOT_MIN_CHUNK");
  EXPECT_EQ(ThreadPool::slot_min_chunk(), ThreadPool::kDefaultSlotMinChunk);
  ::setenv("ECA_SLOT_MIN_CHUNK", "256", 1);
  EXPECT_EQ(ThreadPool::slot_min_chunk(), 256u);
  ::setenv("ECA_SLOT_MIN_CHUNK", "", 1);  // empty means unset
  EXPECT_EQ(ThreadPool::slot_min_chunk(), ThreadPool::kDefaultSlotMinChunk);
  ::unsetenv("ECA_SLOT_MIN_CHUNK");
  // Invalid values exit(2) — fail-fast, checked via a death assertion.
  ::setenv("ECA_SLOT_MIN_CHUNK", "fast", 1);
  EXPECT_EXIT(ThreadPool::slot_min_chunk(), ::testing::ExitedWithCode(2),
              "ECA_SLOT_MIN_CHUNK");
  ::setenv("ECA_SLOT_MIN_CHUNK", "0", 1);
  EXPECT_EXIT(ThreadPool::slot_min_chunk(), ::testing::ExitedWithCode(2),
              "ECA_SLOT_MIN_CHUNK");
  ::unsetenv("ECA_SLOT_MIN_CHUNK");
}

}  // namespace
}  // namespace eca
