#include "arbtable/defrag.hpp"

#include <array>
#include <bit>
#include <cassert>

#include "arbtable/entry_set.hpp"
#include "arbtable/table_manager.hpp"

namespace ibarb::arbtable {

unsigned defragment_sequences(TableManager& manager) {
  // The scattered baseline has no spaced structure to restore.
  if (manager.cfg_.policy == FillPolicy::kScattered) return 0;
  auto& sequences = manager.sequences_;

  // Visit live sequences largest first (distance 1 holds 64 slots), each
  // size class in ascending buddy address, so already-packed layouts stay
  // untouched (keeping the number of live reconfigurations minimal). Blocks
  // of one class never share an address, so this order is total.
  //
  // The walk builds the packed starts_ and occupied_ as it goes and resolves
  // every mover's handle through the old owner_ before any entry of owner_
  // is rewritten: a target address may still hold a later mover's start.
  // The tables are rendered from the masks on their next read.
  struct Move {
    SeqHandle handle;
    unsigned start;       ///< Buddy-space start of the target E_{i,j}.
    std::uint64_t slots;  ///< Slot mask of the target E_{i,j}.
  };
  std::array<Move, iba::kArbTableEntries> moving;
  std::array<std::uint64_t, kDistanceClasses> starts{};
  std::uint64_t occupied = 0;
  unsigned moves = 0;
  unsigned cursor = 0;  // next free buddy-space address
  for (unsigned cls = 0; cls < kDistanceClasses; ++cls) {
    const unsigned size = iba::kArbTableEntries >> cls;
    for (std::uint64_t live = manager.starts_[cls]; live != 0;
         live &= live - 1) {
      const auto start = static_cast<unsigned>(std::countr_zero(live));
      assert(cursor % size == 0 && "decreasing sizes keep the cursor aligned");
      // A block starting at buddy address q is E_{cls, rev_6(q)}.
      const std::uint64_t slots = kStrideMasks[cls] << kReverse6[cursor];
      if (start != cursor)
        moving[moves++] = Move{manager.owner_[start], cursor, slots};
      starts[cls] |= std::uint64_t{1} << cursor;
      occupied |= slots;
      cursor += size;
    }
  }

  for (unsigned k = 0; k < moves; ++k) {
    sequences[moving[k].handle].slots = moving[k].slots;
    manager.owner_[moving[k].start] = moving[k].handle;
  }
  manager.starts_ = starts;
  manager.occupied_ = occupied;
  return moves;
}

}  // namespace ibarb::arbtable
