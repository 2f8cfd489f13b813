// Slot-span tracing in Chrome trace format.
//
// A TraceSession owns a fixed-capacity, lock-free event buffer. TraceSpan
// (or the ECA_TRACE_SPAN macro) records one complete event ("ph":"X") per
// scope: two clock reads and one atomic slot claim, zero heap allocations —
// safe on the Newton hot path. When the buffer fills, further events are
// dropped (and counted) rather than grown, preserving the no-allocation
// guarantee. Span names must be string literals (the buffer stores the
// pointer, not a copy).
//
// The clock is injected (ClockFn, monotonic nanoseconds) so tests can fake
// time; the default reads std::chrono::steady_clock.
//
// flush() writes one event per line:
//
//   [
//   {"name":"p2_solve","ph":"X","pid":1,"tid":0,"ts":12.345,"dur":8.100},
//   {"name":"slot","ph":"X","pid":1,"tid":0,"ts":2.000,"dur":30.000,
//    "args":{"t":4}}
//   ]
//
// — a strict JSON array (loadable with any JSON parser, and by
// chrome://tracing and Perfetto directly) that is also line-oriented, so
// `grep`/`wc -l` style processing works. Timestamps are microseconds, as
// the trace-event format requires.
//
// A flush to the session's file also appends, after the spans, one counter
// event ("ph":"C") per registered metrics counter and double counter, in
// registration order, stamped with the flush time:
//
//   {"name":"solver.newton_iterations","ph":"C","pid":1,"tid":0,
//    "ts":40.000,"args":{"value":412}}
//
// so the end-of-run totals travel with the timing stream (Perfetto shows
// them as counter tracks).
//
// A process-global session is configured from ECA_TRACE=<path> on first use
// and flushed at exit; global_trace() returns nullptr when tracing is off,
// and every TraceSpan on a null session is a no-op.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace eca::obs {

struct MetricsSnapshot;

// Monotonic nanosecond clock; injectable for tests.
using ClockFn = std::uint64_t (*)();
std::uint64_t steady_clock_ns();

struct TraceOptions {
  std::string path;  // output file; empty => flush() only via flush_to()
  std::size_t capacity = 1 << 16;  // max buffered events
  ClockFn clock = &steady_clock_ns;
  std::uint32_t pid = 1;
};

struct TraceEvent {
  const char* name = nullptr;  // string literal
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  const char* arg_name = nullptr;  // string literal; nullptr = no args
  double arg_value = 0.0;
};

class TraceSession {
 public:
  explicit TraceSession(TraceOptions options);
  ~TraceSession();  // flushes to options.path if set and not yet flushed

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  [[nodiscard]] std::uint64_t now() const { return options_.clock(); }

  // Records one complete event. Lock-free, allocation-free; drops (and
  // counts) once the buffer is full.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              const char* arg_name = nullptr, double arg_value = 0.0);

  // Events recorded so far (capped at capacity) / dropped for lack of room.
  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::size_t dropped() const;

  // Serializes the buffered events, followed by one counter event per
  // entry of `totals` when given. flush() opens options.path ("" => no-op,
  // returns false) and passes the global registry's snapshot. Events
  // recorded concurrently with a flush may or may not be included; flush at
  // quiescent points.
  bool flush();
  void flush_to(std::ostream& os,
                const MetricsSnapshot* totals = nullptr) const;

 private:
  TraceOptions options_;
  std::vector<TraceEvent> buffer_;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> dropped_{0};
  bool flushed_ = false;
};

// The env-configured (ECA_TRACE=<path>) process-global session; nullptr
// when tracing is disabled. Flushed by a static destructor at exit.
// Parses ECA_TRACE_CAP, failing fast with exit(2) when the value is set
// but not a positive integer; returns 0 when unset. Read once by the
// global_trace() initialization; exposed so death tests can exercise the
// validation directly.
std::size_t trace_cap_from_env();

TraceSession* global_trace();
// Replaces the global session (tests, embedders). The registry takes
// ownership; the previous session is flushed and destroyed. Pass nullptr
// to disable. Returns the new session.
TraceSession* install_global_trace(TraceOptions options);
void drop_global_trace();

// RAII span: start time at construction, recorded at destruction.
class TraceSpan {
 public:
  TraceSpan(TraceSession* session, const char* name)
      : session_(session), name_(name) {
    if (session_ != nullptr) start_ = session_->now();
  }
  ~TraceSpan() {
    if (session_ != nullptr) {
      session_->record(name_, start_, session_->now() - start_, arg_name_,
                       arg_value_);
    }
  }
  // Attaches one numeric argument emitted with the event ("args":{name:v}).
  void set_arg(const char* name, double value) {
    arg_name_ = name;
    arg_value_ = value;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSession* session_;
  const char* name_;
  std::uint64_t start_ = 0;
  const char* arg_name_ = nullptr;
  double arg_value_ = 0.0;
};

#define ECA_OBS_CONCAT_INNER(a, b) a##b
#define ECA_OBS_CONCAT(a, b) ECA_OBS_CONCAT_INNER(a, b)
// Scoped span on the global session (no-op when tracing is off).
#define ECA_TRACE_SPAN(name)                             \
  ::eca::obs::TraceSpan ECA_OBS_CONCAT(eca_trace_span_, \
                                       __LINE__)(::eca::obs::global_trace(), \
                                                 (name))

}  // namespace eca::obs
