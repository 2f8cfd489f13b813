// Benchmark-side decorator that times OnlineAlgorithm::decide from outside
// the program.
//
// TimedAlgorithm forwards every virtual of the wrapped algorithm — name,
// reset, decide, last_decide_telemetry, slot_separable and clone_for_slots —
// so a decorated run takes exactly the code path of an undecorated one
// (including the simulator's slot fan-out) and produces bitwise-identical
// allocations and costs. Each decorator, clones included, keeps a private
// buffer of decide times that it merges into the shared DecideLog when it is
// destroyed, so concurrent workers never contend on a lock per decide.
//
// When a trace session is installed, every call is also recorded as a span
// (bench.reset, bench.decide_approx, bench.decide_baseline,
// bench.decide_other) so the trace fold can attribute decide self time.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "algo/algorithm.h"
#include "obs/trace.h"

namespace eca::perfbench {

// online-approx; the four slot-LP baselines (perf-opt, oper-opt, stat-opt,
// online-greedy); everything else (static-once decides one LP per run).
enum class Family { kApprox, kBaseline, kOther };

inline Family family_of(const std::string& name) {
  if (name == "online-approx") return Family::kApprox;
  if (name == "perf-opt" || name == "oper-opt" || name == "stat-opt" ||
      name == "online-greedy") {
    return Family::kBaseline;
  }
  return Family::kOther;
}

// Thread-safe sink of per-algorithm decide times (seconds).
class DecideLog {
 public:
  void merge(const std::string& algorithm, std::vector<double>&& samples) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double>& into = by_algorithm_[algorithm];
    into.insert(into.end(), samples.begin(), samples.end());
  }

  [[nodiscard]] std::map<std::string, std::vector<double>> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return by_algorithm_;
  }

  // Decide samples of every algorithm in `family`.
  [[nodiscard]] std::vector<double> decides(Family family) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto& [name, samples] : by_algorithm_) {
      if (family_of(name) != family) continue;
      out.insert(out.end(), samples.begin(), samples.end());
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> by_algorithm_;
};

class TimedAlgorithm final : public algo::OnlineAlgorithm {
 public:
  TimedAlgorithm(algo::AlgorithmPtr inner, DecideLog* log)
      : inner_(std::move(inner)), log_(log), name_(inner_->name()) {
    switch (family_of(name_)) {
      case Family::kApprox: decide_span_ = "bench.decide_approx"; break;
      case Family::kBaseline: decide_span_ = "bench.decide_baseline"; break;
      case Family::kOther: decide_span_ = "bench.decide_other"; break;
    }
  }
  ~TimedAlgorithm() override {
    if (!decide_s_.empty()) log_->merge(name_, std::move(decide_s_));
  }
  TimedAlgorithm(const TimedAlgorithm&) = delete;
  TimedAlgorithm& operator=(const TimedAlgorithm&) = delete;

  [[nodiscard]] std::string name() const override { return name_; }

  void reset(const algo::Instance& instance) override {
    obs::TraceSpan span(obs::global_trace(), "bench.reset");
    inner_->reset(instance);
  }

  [[nodiscard]] algo::Allocation decide(
      const algo::Instance& instance, std::size_t t,
      const algo::Allocation& previous) override {
    obs::TraceSpan span(obs::global_trace(), decide_span_);
    const auto start = Clock::now();
    algo::Allocation out = inner_->decide(instance, t, previous);
    decide_s_.push_back(seconds_since(start));
    return out;
  }

  [[nodiscard]] const obs::SolveTelemetry* last_decide_telemetry()
      const override {
    return inner_->last_decide_telemetry();
  }

  [[nodiscard]] bool slot_separable() const override {
    return inner_->slot_separable();
  }

  [[nodiscard]] algo::AlgorithmPtr clone_for_slots() const override {
    algo::AlgorithmPtr clone = inner_->clone_for_slots();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TimedAlgorithm>(std::move(clone), log_);
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  algo::AlgorithmPtr inner_;
  DecideLog* log_;
  std::string name_;
  const char* decide_span_ = "bench.decide_other";
  std::vector<double> decide_s_;
};

}  // namespace eca::perfbench
