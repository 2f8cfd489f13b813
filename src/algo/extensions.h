// Extension algorithms beyond the paper's roster.
//
// * LookaheadOpt(k) — a model-predictive oracle: each slot it sees the next
//   k slots of prices and attachments (which a real system would have to
//   predict), solves the offline LP over those slots anchored at its
//   previous decision (algo::build_horizon_lp, with solve_offline's solver
//   choice) and commits only the first slot. k = 1 coincides with
//   online-greedy; k = T is the offline optimum. The paper's related work
//   ([15]) builds on exactly this kind of predicted-future-cost scheme, so
//   it makes a useful upper-envelope comparison for the prediction-free
//   online-approx.
//
// * LazyGreedy(threshold) — hysteresis: keep the previous allocation as
//   long as its slot cost is within (1 + threshold) of the re-optimized
//   one; otherwise adopt the greedy decision. The classic "don't move
//   unless it pays" heuristic used by practical orchestrators.
#pragma once

#include "algo/algorithm.h"

namespace eca::algo {

struct LookaheadOptions {
  std::size_t window = 2;  // slots of (assumed perfect) foresight
};

class LookaheadOpt final : public OnlineAlgorithm {
 public:
  explicit LookaheadOpt(LookaheadOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override {
    return "lookahead-" + std::to_string(options_.window);
  }

  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

 private:
  LookaheadOptions options_;
};

struct LazyGreedyOptions {
  double threshold = 0.1;  // relative slack before re-optimizing
};

class LazyGreedy final : public OnlineAlgorithm {
 public:
  explicit LazyGreedy(LazyGreedyOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "lazy-greedy"; }

  [[nodiscard]] Allocation decide(const Instance& instance, std::size_t t,
                                  const Allocation& previous) override;

 private:
  LazyGreedyOptions options_;
};

}  // namespace eca::algo
