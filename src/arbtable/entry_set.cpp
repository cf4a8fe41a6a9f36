#include "arbtable/entry_set.hpp"

#include <cassert>
#include <vector>

namespace ibarb::arbtable {

std::uint64_t occupancy_mask(const iba::ArbTable& table) {
  std::uint64_t mask = 0;
  for (unsigned p = 0; p < iba::kArbTableEntries; ++p)
    mask |= static_cast<std::uint64_t>(table[p].active()) << p;
  return mask;
}

bool set_is_free(const iba::ArbTable& table, const EntrySet& set) {
  assert(set.valid());
  return set_is_free(occupancy_mask(table), set);
}

unsigned free_entries(const iba::ArbTable& table) {
  return iba::kArbTableEntries -
         static_cast<unsigned>(std::popcount(occupancy_mask(table)));
}

unsigned max_gap_for_vl(const iba::ArbTable& table, iba::VirtualLane vl) {
  std::vector<unsigned> hits;
  for (unsigned p = 0; p < iba::kArbTableEntries; ++p)
    if (table[p].active() && table[p].vl == vl) hits.push_back(p);
  if (hits.size() <= 1) return iba::kArbTableEntries;
  unsigned max_gap = 0;
  for (std::size_t k = 0; k < hits.size(); ++k) {
    const unsigned next = hits[(k + 1) % hits.size()];
    const unsigned gap = (next + iba::kArbTableEntries - hits[k]) %
                         iba::kArbTableEntries;
    if (gap > max_gap) max_gap = gap;
  }
  return max_gap == 0 ? iba::kArbTableEntries : max_gap;
}

}  // namespace ibarb::arbtable
