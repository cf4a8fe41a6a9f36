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
  auto& table = manager.table_;

  // Visit live sequences largest first (distance 1 holds 64 slots), each
  // size class in ascending buddy address, so already-packed layouts stay
  // untouched (keeping the number of live reconfigurations minimal). Blocks
  // of one class never share an address, so this order is total.
  //
  // Assign target blocks first; apply moves in two phases (clear every
  // mover's old slots, then write every mover's new slots). One-phase
  // relocation would corrupt the table whenever a target region overlaps a
  // later mover's current slots.
  struct Move {
    SeqHandle handle;
    std::uint64_t target;  ///< Slot mask of the target E_{i,j}.
  };
  std::array<Move, iba::kArbTableEntries> moving;
  unsigned moves = 0;
  unsigned cursor = 0;  // next free buddy-space address
  for (unsigned cls = 0; cls < kDistanceClasses; ++cls) {
    const unsigned size = iba::kArbTableEntries >> cls;
    for (std::uint64_t starts = manager.starts_[cls]; starts != 0;
         starts &= starts - 1) {
      const auto start = static_cast<unsigned>(std::countr_zero(starts));
      assert(cursor % size == 0 && "decreasing sizes keep the cursor aligned");
      // A block starting at buddy address q is E_{cls, rev_6(q)}.
      if (start != cursor)
        moving[moves++] = Move{manager.owner_[start],
                               kStrideMasks[cls] << kReverse6[cursor]};
      cursor += size;
    }
  }

  for (unsigned k = 0; k < moves; ++k) {
    const SeqHandle h = moving[k].handle;
    for (const auto p : sequences[h].positions()) table.high()[p] = {};
    manager.unindex_sequence(h);
  }
  for (unsigned k = 0; k < moves; ++k) {
    const SeqHandle h = moving[k].handle;
    sequences[h].slots = moving[k].target;
    manager.write_sequence(sequences[h]);
    manager.index_sequence(h);
  }
  return moves;
}

}  // namespace ibarb::arbtable
