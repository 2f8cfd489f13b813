#include "agg/user_classes.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/scenario.h"

namespace eca::agg {
namespace {

using model::Allocation;
using model::Instance;

// Random-walk scenario with a coarse demand alphabet (uniform on {1, 2, 3})
// so classes actually collapse at modest J.
Instance collapse_instance(std::uint64_t seed, std::size_t num_users = 48,
                           std::size_t num_slots = 8) {
  sim::ScenarioOptions options;
  options.num_users = num_users;
  options.num_slots = num_slots;
  options.workload.distribution = workload::Distribution::kUniform;
  options.workload.mean = 2.0;
  options.seed = seed;
  return sim::make_random_walk_instance(options);
}

// Minimal hand-built instance: only the fields the partition builders read.
Instance tiny_instance() {
  Instance instance;
  instance.num_clouds = 2;
  instance.num_users = 4;
  instance.num_slots = 2;
  instance.demand = {2.0, 2.0, 2.0, 2.0};
  instance.attachment = {{0, 0, 0, 0}, {0, 0, 0, 0}};
  return instance;
}

void check_invariants(const ClassPartition& part, std::size_t num_users) {
  EXPECT_EQ(part.num_users, num_users);
  EXPECT_EQ(part.class_of.size(), num_users);
  EXPECT_EQ(part.representative.size(), part.num_classes);
  EXPECT_EQ(part.count.size(), part.num_classes);
  std::size_t total = 0;
  for (std::size_t c = 0; c < part.num_classes; ++c) {
    total += part.count[c];
    // The representative is a member of its own class...
    EXPECT_EQ(part.class_of[part.representative[c]], c);
    // ...and ids are assigned in first-occurrence order, so representative
    // indices are strictly increasing.
    if (c > 0) {
      EXPECT_GT(part.representative[c], part.representative[c - 1]);
    }
  }
  EXPECT_EQ(total, num_users);
  // No user before its class's representative.
  for (std::size_t j = 0; j < num_users; ++j) {
    EXPECT_GE(j, part.representative[part.class_of[j]]);
  }
}

TEST(SlotClasses, EmptyPreviousGroupsExactlyByDemandAndStation) {
  const Instance instance = collapse_instance(7);
  for (std::size_t t : {std::size_t{0}, instance.num_slots - 1}) {
    const ClassPartition part = build_slot_classes(instance, t, Allocation{});
    check_invariants(part, instance.num_users);
    EXPECT_GT(part.collapse_ratio(), 1.0);  // the coarse alphabet collapses
    for (std::size_t a = 0; a < instance.num_users; ++a) {
      for (std::size_t b = a + 1; b < instance.num_users; ++b) {
        const bool equivalent =
            detail::bits_of(instance.demand[a]) ==
                detail::bits_of(instance.demand[b]) &&
            instance.attachment[t][a] == instance.attachment[t][b];
        EXPECT_EQ(part.class_of[a] == part.class_of[b], equivalent)
            << "users " << a << "," << b << " at slot " << t;
      }
    }
  }
}

TEST(SlotClasses, EmptyPreviousMatchesZeroFilled) {
  const Instance instance = collapse_instance(11);
  const ClassPartition from_empty =
      build_slot_classes(instance, 0, Allocation{});
  const ClassPartition from_zeros = build_slot_classes(
      instance, 0, Allocation(instance.num_clouds, instance.num_users));
  EXPECT_EQ(from_empty.class_of, from_zeros.class_of);
  EXPECT_EQ(from_empty.representative, from_zeros.representative);
  EXPECT_EQ(from_empty.count, from_zeros.count);
}

TEST(SlotClasses, SplitOnPreviousColumnAndRemerge) {
  const Instance instance = tiny_instance();
  // Identical (λ, l) and no previous: one class.
  EXPECT_EQ(build_slot_classes(instance, 0, Allocation{}).num_classes, 1u);

  // Users 0,1 previously served from cloud 0, users 2,3 from cloud 1: the
  // previous column splits the static class in two.
  Allocation prev(2, 4);
  prev.at(0, 0) = prev.at(0, 1) = 2.0;
  prev.at(1, 2) = prev.at(1, 3) = 2.0;
  const ClassPartition split = build_slot_classes(instance, 1, prev);
  check_invariants(split, 4);
  EXPECT_EQ(split.num_classes, 2u);
  EXPECT_EQ(split.class_of[0], split.class_of[1]);
  EXPECT_EQ(split.class_of[2], split.class_of[3]);
  EXPECT_NE(split.class_of[0], split.class_of[2]);

  // Once the allocations agree bitwise again the users fall back into one
  // class — the partition keys on values, not on class history.
  Allocation merged(2, 4);
  for (std::size_t j = 0; j < 4; ++j) merged.at(0, j) = 2.0;
  EXPECT_EQ(build_slot_classes(instance, 1, merged).num_classes, 1u);
}

TEST(SlotClasses, AttachmentAndDemandStillSplit) {
  Instance instance = tiny_instance();
  instance.attachment[1] = {0, 1, 0, 1};
  const ClassPartition by_station =
      build_slot_classes(instance, 1, Allocation{});
  EXPECT_EQ(by_station.num_classes, 2u);
  instance.demand = {2.0, 2.0, 3.0, 3.0};
  const ClassPartition by_both =
      build_slot_classes(instance, 1, Allocation{});
  EXPECT_EQ(by_both.num_classes, 4u);
}

TEST(GroupUsers, EqualityArbitratesTagCollisions) {
  // A constant tag forces every user into one hash bucket; the partition
  // must still come out exactly as the equality relation dictates.
  const ClassPartition part = group_users(
      6, [](std::size_t) { return std::uint64_t{0}; },
      [](std::size_t a, std::size_t b) { return a % 2 == b % 2; });
  check_invariants(part, 6);
  EXPECT_EQ(part.num_classes, 2u);
  EXPECT_EQ(part.class_of[0], 0u);  // first-occurrence ids
  EXPECT_EQ(part.class_of[1], 1u);
  EXPECT_EQ(part.class_of[4], 0u);
  EXPECT_EQ(part.class_of[5], 1u);
}

}  // namespace
}  // namespace eca::agg
