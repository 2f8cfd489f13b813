// Run-level streaming event log (`eca.events.v4`) — the one serialization
// of a run.
//
// An EventLog owns a bounded, lock-free buffer of fixed-size EventRecords.
// record() is two relaxed atomics and a struct copy — allocation-free — and
// drops (and counts) once the buffer is full, mirroring TraceSession.
// flush() serializes the buffer as JSONL: a header line carrying the
// schema, then one JSON object per event in claim order, each stamped with
// its sequence number.
//
// Computation never writes to the log. A run is recorded once it has
// finished, from its RunTelemetry, by emit_run: run_begin, then per slot in
// ascending order `slot` (and `solve` when the slot has solver stats), then
// run_end. sim::run_experiment records from its deterministic merge loop:
// per repetition rep_begin, the offline-opt run (the regret reference),
// each algorithm's run followed by its result, rep_end. Direct callers of
// Simulator::run (examples/run_instance) record their own run.
//
// Determinism contract: every payload value is deterministic — slot
// indices, cost splits, iteration counts, KKT residuals — never wall clocks,
// thread ids or resolved worker counts, and every record is made by one
// thread in a fixed order. The serialized stream is therefore byte-identical
// for every ECA_THREADS / ECA_SLOT_THREADS / ECA_BASELINE_THREADS /
// ECA_LP_THREADS value — pinned by tests/sim/events_determinism_test.cc
// under the tsan-smoke label.
//
// The process-global log is configured from ECA_EVENTS=<path> on first use
// (ECA_EVENTS_CAP bounds the buffer). Both knobs fail fast with exit
// status 2 on invalid values — the contract every ECA_* knob keeps (see
// common/env.h): an observability typo must not silently run a different
// configuration.
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

inline constexpr const char* kEventsSchema = "eca.events.v4";

enum class EventKind : std::uint8_t {
  kExperimentBegin,  // label=experiment label, a=repetitions, b=roster size
  kRepBegin,         // a=rep, x=offline-opt cost (the ratio denominator)
  kRunBegin,         // label=algorithm, a=clouds, b=users, c=slots
  kSlot,             // a=slot, x/y/z/w = weighted op/sq/rc/mg cost split
  kSolve,            // a=slot, b=newton iters, c=mu steps, d=flag bits,
                     // x=kkt_comp_avg, y=kkt_dual_residual
  kRunEnd,           // label=algorithm, a=slots, b=iters, c=warm_fb,
                     // d=warm_started, x=total cost
  kResult,           // label=algorithm, a=rep, x=cost, y=competitive ratio
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

  // Serializes the buffered events as `eca.events.v4` JSONL. flush() opens
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
// All no-op on a null log and never allocate; payloads carry only
// deterministic values (see file comment).

inline void emit_experiment_begin(EventLog* log, std::string_view label,
                                  int repetitions,
                                  std::size_t num_algorithms) {
  if (log == nullptr) return;
  EventRecord ev;
  ev.kind = EventKind::kExperimentBegin;
  ev.set_label(label);
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

// Records one finished run: run_begin, then per slot in ascending order a
// slot record (and a solve record when has_solve), then run_end carrying the
// run's totals.
void emit_run(EventLog* log, const RunTelemetry& run);

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
