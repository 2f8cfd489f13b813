// Exact user-class partitions (DESIGN.md §12).
//
// The paper's inputs make users massively interchangeable: demands are
// small integers and attachments come from ~15 metro stations, so a slot
// with a million users has only a few hundred distinct user *types*. Two
// users are equivalent for online-approx's per-slot P2 when every
// coefficient it reads off them is equal: (λ_j, l_{j,t}, x*_{·,j,t-1}).
//
// Equivalent users can be collapsed into one class variable with a
// multiplicity weight, solved once, and expanded back — exactly, because
// the P2 solver produces symmetric optima for symmetric users (see
// DESIGN.md §12 for the argument). build_slot_classes constructs the
// partition.
//
// Determinism contract: class ids are assigned in first-occurrence order of
// the user index (user 0's class is class 0), construction is serial, and
// equality is bitwise on the keyed doubles — so a partition is a pure
// function of the instance (and previous allocation) and is bit-identical
// for any ECA_SLOT_THREADS / ECA_BASELINE_THREADS configuration. Keying on
// the *values* of the previous allocation (not on any class history) is
// what makes classes re-merge: users that diverged in the past but hold
// bitwise-equal allocations again fall back into one class.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/instance.h"

namespace eca::agg {

// A partition of users 0..J-1 into equivalence classes.
struct ClassPartition {
  std::size_t num_users = 0;
  std::size_t num_classes = 0;
  std::vector<std::uint32_t> class_of;      // size J: user -> class id
  std::vector<std::size_t> representative;  // size C: first member's index
  std::vector<std::size_t> count;           // size C: members per class

  // Multiplicity weight w_c as a double (exact for any realistic J).
  [[nodiscard]] double weight(std::size_t c) const {
    return static_cast<double>(count[c]);
  }
  [[nodiscard]] bool all_singletons() const {
    return num_classes == num_users;
  }
  // J / C, the headline scalability metric (1.0 for all-singletons).
  [[nodiscard]] double collapse_ratio() const {
    return num_classes == 0
               ? 1.0
               : static_cast<double>(num_users) /
                     static_cast<double>(num_classes);
  }
};

namespace detail {

// 64-bit mixing (splitmix64 finalizer) — collisions are harmless for
// correctness (the equality callback arbitrates) but expensive, so the
// avalanche quality matters.
inline std::uint64_t mix64(std::uint64_t v) {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return v;
}

inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return mix64(seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6)));
}

inline std::uint64_t bits_of(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace detail

// Core grouping loop shared by the builders (and the streaming driver,
// which supplies cheaper per-user tags computed from previous-slot class
// columns). `tag(j)` must be equal for equivalent users; `equal(a, b)`
// decides true equivalence among tag-colliding candidates, and is always
// consulted — the partition depends only on `equal`, never on tag values.
// Serial by construction; class ids are first-occurrence ordered.
template <typename TagFn, typename EqualFn>
ClassPartition group_users(std::size_t num_users, TagFn&& tag,
                           EqualFn&& equal) {
  constexpr std::uint32_t kNone = 0xffffffffu;
  ClassPartition part;
  part.num_users = num_users;
  part.class_of.resize(num_users);
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  buckets.reserve(num_users);
  for (std::size_t j = 0; j < num_users; ++j) {
    std::vector<std::uint32_t>& bucket = buckets[tag(j)];
    std::uint32_t cls = kNone;
    for (const std::uint32_t candidate : bucket) {
      if (equal(part.representative[candidate], j)) {
        cls = candidate;
        break;
      }
    }
    if (cls == kNone) {
      cls = static_cast<std::uint32_t>(part.representative.size());
      part.representative.push_back(j);
      part.count.push_back(0);
      bucket.push_back(cls);
    }
    part.class_of[j] = cls;
    ++part.count[cls];
  }
  part.num_classes = part.representative.size();
  return part;
}

// Per-slot P2 classes: key (λ_j bits, l_{j,t}) refined by the user's
// previous allocation column x*_{·,j,t-1}, compared bitwise. `previous` may
// be empty (slot 0), which reads as the all-zero column.
ClassPartition build_slot_classes(const model::Instance& instance,
                                  std::size_t t,
                                  const model::Allocation& previous);

// Structural validation of a partition: sizes consistent, every class id
// in range, counts matching class_of, representatives first-occurrence
// ordered and members of their own class. Returns an empty string when the
// partition is well-formed, else a description of the first defect — the
// aggregated differential leg of the property harness runs this before
// trusting a collapse.
std::string validate_partition(const ClassPartition& part);

}  // namespace eca::agg
