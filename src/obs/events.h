// Run-level streaming event log (`eca.events.v2`).
//
// An EventLog owns a bounded, lock-free buffer of fixed-size EventRecords.
// record() is two relaxed atomics and a struct copy — allocation-free, safe
// on the decide/Newton hot path — and drops (and counts) once the buffer is
// full, mirroring TraceSession. flush() serializes the buffer as JSONL: a
// header line carrying the schema, then one JSON object per event in claim
// order, each stamped with its sequence number.
//
// Determinism contract (the same one the metrics registry documents):
// every value placed in an event payload must itself be deterministic —
// slot indices, cost splits, iteration counts, work volumes — never wall
// clocks, thread ids, or resolved worker counts. The instrumentation in
// sim/algo records events only from the thread driving the slot sequence
// (the simulator emits slot events post-merge in ascending slot order, and
// the only decide-path emitter, OnlineApprox, always runs its slots
// serially), so the serialized stream is bit-identical for every
// ECA_SLOT_THREADS / ECA_BASELINE_THREADS / ECA_LP_THREADS value — pinned
// by tests/sim/events_determinism_test.cc under the tsan-smoke label. The
// runner-level repetition fan-out (ECA_THREADS) interleaves whole runs'
// events nondeterministically; capture streams for diffing with
// ECA_THREADS=1.
//
// The process-global log is configured from ECA_EVENTS=<path> on first use
// (ECA_EVENTS_CAP bounds the buffer). Both knobs fail fast with exit
// status 2 on invalid values — the same contract as ECA_METRICS: an
// observability typo must not silently run a different configuration.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.h"

namespace eca::obs {

inline constexpr const char* kEventsSchema = "eca.events.v2";

enum class EventKind : std::uint8_t {
  kExperimentBegin,  // label="", a=repetitions, b=roster size
  kRepBegin,         // a=rep, x=offline-opt cost (the ratio denominator)
  kRunBegin,         // label=algorithm, a=clouds, b=users, c=slots
  kWorkers,          // label=scope, a=work, b=min_work, c=eligible (0/1)
  kSlot,             // a=slot, x/y/z/w = weighted op/sq/rc/mg cost split
  kSolve,            // a=slot, b=newton iters, c=mu steps, d=flag bits
  kRunEnd,    // label=algorithm, a=slots, b=iters, c=warm_fb, x=total cost
  kResult,    // label=algorithm, a=rep, x=cost, y=competitive ratio
  kRepEnd,           // a=rep
  kExperimentEnd,    // a=simulations accumulated
};
const char* to_string(EventKind kind);

// Bit flags of the kSolve `d` payload.
inline constexpr std::int64_t kSolveWarmStarted = 1;
inline constexpr std::int64_t kSolveWarmFallback = 2;

// Fixed-size POD payload: a short copied label plus kind-specific numeric
// fields (see EventKind). Copying the label keeps record() allocation-free
// without a lifetime contract on the caller's string.
struct EventRecord {
  EventKind kind = EventKind::kRunBegin;
  char label[40] = {};
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int64_t d = 0;
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  double w = 0.0;

  void set_label(std::string_view text) {
    const std::size_t n = text.size() < sizeof(label) - 1
                              ? text.size()
                              : sizeof(label) - 1;
    std::memcpy(label, text.data(), n);
    label[n] = '\0';
  }
};

struct EventLogOptions {
  std::string path;  // output file; empty => flush() only via flush_to()
  std::size_t capacity = 1 << 16;  // max buffered events
};

class EventLog {
 public:
  explicit EventLog(EventLogOptions options);
  ~EventLog();  // flushes to options.path if set and not yet flushed

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Records one event. Lock-free, allocation-free; drops (and counts) once
  // the buffer is full.
  void record(const EventRecord& event);

  // Events recorded so far (capped at capacity) / dropped for lack of room.
  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::size_t dropped() const;

  // Serializes the buffered events as `eca.events.v2` JSONL. flush() opens
  // options.path ("" => no-op, returns false). Flush at quiescent points;
  // events recorded concurrently may or may not be included.
  bool flush();
  void flush_to(std::ostream& os) const;

 private:
  EventLogOptions options_;
  std::vector<EventRecord> buffer_;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> dropped_{0};
  bool flushed_ = false;
};

// Parses ECA_EVENTS / ECA_EVENTS_CAP into `options`, failing fast with
// exit(2) on any set-but-invalid value (empty path, unwritable path,
// non-numeric or < 1 cap). Returns false when ECA_EVENTS is unset. The
// global_events() initialization calls this once on first use; exposed so
// death tests can exercise the validation directly.
bool events_options_from_env(EventLogOptions& options);

// The env-configured (ECA_EVENTS=<path>) process-global log; nullptr when
// event streaming is disabled. Flushed by a static destructor at exit.
EventLog* global_events();
// Replaces the global log (tests, embedders). The registry takes ownership;
// the previous log is flushed and destroyed.
EventLog* install_global_events(EventLogOptions options);
void drop_global_events();

// --- Emit helpers ---------------------------------------------------------
// All are single-record builders that no-op on a null log and never
// allocate; payloads carry only deterministic values (see file comment).

inline void emit_experiment_begin(EventLog* log, int repetitions,
                                  std::size_t num_algorithms) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kExperimentBegin;
  ev.a = repetitions;
  ev.b = static_cast<std::int64_t>(num_algorithms);
  log->record(ev);
}

inline void emit_rep_begin(EventLog* log, std::size_t rep,
                           double offline_cost) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kRepBegin;
  ev.a = static_cast<std::int64_t>(rep);
  ev.x = offline_cost;
  log->record(ev);
}

inline void emit_run_begin(EventLog* log, std::string_view algorithm,
                           std::size_t clouds, std::size_t users,
                           std::size_t slots) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kRunBegin;
  ev.set_label(algorithm);
  ev.a = static_cast<std::int64_t>(clouds);
  ev.b = static_cast<std::int64_t>(users);
  ev.c = static_cast<std::int64_t>(slots);
  log->record(ev);
}

// Worker-engagement record. Deliberately carries the *policy inputs* (work
// volume, floor, separability-based eligibility) and not the resolved
// worker count — the resolved count depends on ECA_*_THREADS and the host's
// core count, which would break the stream's bit-identity contract. The
// resolved counts live in metrics/trace, which are outside that contract.
inline void emit_workers(EventLog* log, std::string_view scope,
                         std::size_t work, std::size_t min_work,
                         bool eligible) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kWorkers;
  ev.set_label(scope);
  ev.a = static_cast<std::int64_t>(work);
  ev.b = static_cast<std::int64_t>(min_work);
  ev.c = eligible ? 1 : 0;
  log->record(ev);
}

inline void emit_slot(EventLog* log, std::size_t slot, double cost_operation,
                      double cost_service_quality, double cost_reconfiguration,
                      double cost_migration) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kSlot;
  ev.a = static_cast<std::int64_t>(slot);
  ev.x = cost_operation;
  ev.y = cost_service_quality;
  ev.z = cost_reconfiguration;
  ev.w = cost_migration;
  log->record(ev);
}

inline void emit_solve(EventLog* log, std::size_t slot,
                       const SolveTelemetry& solve) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kSolve;
  ev.a = static_cast<std::int64_t>(slot);
  ev.b = solve.newton_iterations;
  ev.c = solve.mu_steps;
  ev.d = (solve.warm_started ? kSolveWarmStarted : 0) |
         (solve.warm_fallback ? kSolveWarmFallback : 0);
  log->record(ev);
}

// Solver-health summary of one finished run (RunTelemetry aggregates only —
// no wall clocks, which would break determinism).
inline void emit_run_end(EventLog* log, const RunTelemetry& run) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kRunEnd;
  ev.set_label(run.algorithm);
  ev.a = static_cast<std::int64_t>(run.slots.size());
  ev.b = run.total_newton_iterations();
  ev.c = static_cast<std::int64_t>(run.warm_fallback_slots());
  ev.x = run.total_cost;
  log->record(ev);
}

inline void emit_result(EventLog* log, std::string_view algorithm,
                        std::size_t rep, double cost, double ratio) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kResult;
  ev.set_label(algorithm);
  ev.a = static_cast<std::int64_t>(rep);
  ev.x = cost;
  ev.y = ratio;
  log->record(ev);
}

inline void emit_rep_end(EventLog* log, std::size_t rep) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kRepEnd;
  ev.a = static_cast<std::int64_t>(rep);
  log->record(ev);
}

inline void emit_experiment_end(EventLog* log, std::size_t simulations) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kExperimentEnd;
  ev.a = static_cast<std::int64_t>(simulations);
  log->record(ev);
}

}  // namespace eca::obs
