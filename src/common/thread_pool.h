// Fixed-size worker pool for embarrassingly parallel experiment fan-out.
//
// The experiment runner evaluates independent (repetition × algorithm)
// tasks; this pool provides the minimal machinery to spread them over
// cores: a task queue, `submit`, and `wait_idle`. No work stealing, no
// futures — results are written into caller-owned, index-addressed buffers
// so output stays deterministic regardless of scheduling order.
//
// Thread count policy (`resolve_threads`): an explicit positive request
// wins, otherwise the ECA_THREADS environment variable, otherwise
// std::thread::hardware_concurrency(). A resolved count of 1 means "run on
// the caller's thread, no pool" — the exact legacy serial path. Every
// thread knob read here follows env_int's fail-fast contract: a set value
// that is not an integer >= 1 exits with status 2.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace eca {

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Enqueues `fn` for execution on some worker. `fn` must not throw.
  void submit(std::function<void()> fn);

  // Blocks until the queue is empty and no task is executing.
  void wait_idle();

  // Resolved worker count: `requested` if positive, else ECA_THREADS if
  // set, else hardware_concurrency (min 1).
  static std::size_t resolve_threads(int requested = 0);

  // Intra-slot (solver) thread policy: `requested` if positive, else
  // ECA_SLOT_THREADS if set, else 1. The default is serial —
  // the experiment runner already parallelizes across repetitions, and
  // nesting slot-level workers under ECA_THREADS workers would
  // oversubscribe; slot parallelism is opt-in for single-trajectory runs.
  static std::size_t resolve_slot_threads(int requested = 0);

  // Horizon-LP (PDHG) thread policy: `requested` if positive, else
  // ECA_LP_THREADS if set, else 1. Like the slot policy the
  // default is serial: the experiment runner parallelizes across
  // repetitions, and the offline LP solve runs inside one repetition task —
  // LP-level workers are opt-in for single-instance / benchmark runs.
  static std::size_t resolve_lp_threads(int requested = 0);

  // Work-aware overload mirroring resolve_slot_threads below: capped so
  // every dispatched worker covers at least `min_work` units of `work`
  // (the PDHG solver passes matrix nonzeros — one worker per few tens of
  // thousands of nonzeros is the break-even against task dispatch) and,
  // unless `cap_to_hardware` is false, by hardware_concurrency.
  static std::size_t resolve_lp_threads(int requested, std::size_t work,
                                        std::size_t min_work,
                                        bool cap_to_hardware = true);

  // Work-aware overload: the base policy above, capped so that every
  // dispatched worker covers at least `min_work` units of `work` (the
  // minimum-work-per-chunk floor that keeps small solves off the pool —
  // dispatching a handful of microseconds of arithmetic onto a task queue
  // costs more than the arithmetic) and, when `cap_to_hardware` is true
  // (the default), so that the worker count never exceeds
  // hardware_concurrency — the assembly is CPU-bound, so oversubscribing
  // cores only adds scheduling overhead and shows up as sub-1x "speedups".
  // A cap of 1 means "run serial". Units are the caller's (the solver
  // passes users for the dense path and active entries for the sparse
  // one); `min_work` == 0 is treated as 1. Pass `cap_to_hardware = false`
  // only to deliberately oversubscribe (the bit-identity determinism tests
  // do, to stress worker interleaving on any machine).
  static std::size_t resolve_slot_threads(int requested, std::size_t work,
                                          std::size_t min_work,
                                          bool cap_to_hardware = true);

  // Baseline-evaluation (simulator slot fan-out) thread policy: `requested`
  // if positive, else ECA_BASELINE_THREADS, else 1. Serial by default for
  // the same reason as the slot/LP policies: the experiment runner already
  // parallelizes across repetitions, so slot-level fan-out is opt-in for
  // single-trajectory runs and benchmarks.
  static std::size_t resolve_baseline_threads(int requested = 0);

  // Work-aware overload mirroring the slot/LP policies: capped so every
  // dispatched worker covers at least `min_work` units of `work` (the
  // simulator passes slot-LP cells, num_slots × num_clouds × num_users)
  // and, unless `cap_to_hardware` is false, by hardware_concurrency.
  static std::size_t resolve_baseline_threads(int requested, std::size_t work,
                                              std::size_t min_work,
                                              bool cap_to_hardware = true);

  // Default work floor for the baseline policy, in slot-LP cells.
  static constexpr std::size_t kDefaultBaselineMinWork = 4096;

  // Minimum users-worth of work per dispatched intra-slot task, from
  // ECA_SLOT_MIN_CHUNK (default kDefaultSlotMinChunk).
  static std::size_t slot_min_chunk();
  static constexpr std::size_t kDefaultSlotMinChunk = 1024;

  // Runs fn(i) for every i in [0, count) on this pool's workers and blocks
  // until all calls return. Unlike the static parallel_for, the pool (and
  // its threads) persist across calls, so the per-call cost is one task
  // submission per worker rather than thread spawn/join — the shape needed
  // by callers dispatching many small parallel regions (the per-iteration
  // assembly passes of RegularizedSolver). fn must be safe to run
  // concurrently for distinct i; indices are handed out via an atomic
  // cursor, so callers needing determinism must write only to
  // index-addressed buffers.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);

  // Runs fn(i) for every i in [0, count). With `threads` <= 1 (or count <=
  // 1) everything executes inline on the caller's thread in index order —
  // the exact serial path. Otherwise workers pull indices from a shared
  // counter; callers must make fn safe to run concurrently for distinct i.
  static void parallel_for(std::size_t count, std::size_t threads,
                           const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace eca
