#include "agg/user_classes.h"

#include "common/check.h"

namespace eca::agg {

using detail::bits_of;
using detail::hash_combine;

ClassPartition build_slot_classes(const model::Instance& instance,
                                  std::size_t t,
                                  const model::Allocation& previous) {
  ECA_CHECK(t < instance.num_slots);
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const bool has_prev = !previous.x.empty();
  ECA_CHECK(!has_prev || (previous.num_clouds == kI &&
                          previous.num_users == kJ),
            "previous allocation has the wrong shape");
  const std::vector<std::size_t>& attachment = instance.attachment[t];
  const model::Vec& demand = instance.demand;
  return group_users(
      instance.num_users,
      [&](std::size_t j) {
        std::uint64_t h = hash_combine(bits_of(demand[j]), attachment[j]);
        if (has_prev) {
          for (std::size_t i = 0; i < kI; ++i) {
            h = hash_combine(h, bits_of(previous.at(i, j)));
          }
        }
        return h;
      },
      [&](std::size_t a, std::size_t b) {
        if (bits_of(demand[a]) != bits_of(demand[b]) ||
            attachment[a] != attachment[b]) {
          return false;
        }
        if (has_prev) {
          for (std::size_t i = 0; i < kI; ++i) {
            if (bits_of(previous.at(i, a)) != bits_of(previous.at(i, b))) {
              return false;
            }
          }
        }
        return true;
      });
}

std::string validate_partition(const ClassPartition& part) {
  if (part.class_of.size() != part.num_users) {
    return "class_of size does not match num_users";
  }
  if (part.representative.size() != part.num_classes ||
      part.count.size() != part.num_classes) {
    return "representative/count size does not match num_classes";
  }
  if (part.num_classes > part.num_users && part.num_users > 0) {
    return "more classes than users";
  }
  std::vector<std::size_t> seen_count(part.num_classes, 0);
  std::size_t next_new_class = 0;
  for (std::size_t j = 0; j < part.num_users; ++j) {
    const std::uint32_t cls = part.class_of[j];
    if (cls >= part.num_classes) return "class id out of range";
    if (seen_count[cls] == 0) {
      // First-occurrence ordering: the first member of a class must be its
      // representative, and new ids must appear in increasing order.
      if (cls != next_new_class) return "class ids not first-occurrence ordered";
      if (part.representative[cls] != j) {
        return "representative is not the first member of its class";
      }
      ++next_new_class;
    }
    ++seen_count[cls];
  }
  for (std::size_t c = 0; c < part.num_classes; ++c) {
    if (seen_count[c] != part.count[c]) {
      return "count does not match class_of membership";
    }
    if (seen_count[c] == 0) return "empty class";
  }
  return "";
}

}  // namespace eca::agg
