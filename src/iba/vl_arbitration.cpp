#include "iba/vl_arbitration.hpp"

namespace ibarb::iba {

unsigned VlArbitrationTable::vl_weight(const ArbTable& t,
                                       VirtualLane vl) noexcept {
  unsigned sum = 0;
  for (const auto& e : t)
    if (e.vl == vl) sum += e.weight;
  return sum;
}

unsigned VlArbitrationTable::total_weight(const ArbTable& t) noexcept {
  unsigned sum = 0;
  for (const auto& e : t) sum += e.weight;
  return sum;
}

unsigned VlArbitrationTable::active_entries(const ArbTable& t) noexcept {
  unsigned n = 0;
  for (const auto& e : t) n += e.active() ? 1u : 0u;
  return n;
}

std::uint16_t VlArbitrationTable::vl_mask(const ArbTable& t) noexcept {
  unsigned mask = 0;
  for (const auto& e : t)
    if (e.active() && e.vl < kMaxVirtualLanes) mask |= 1u << e.vl;
  return static_cast<std::uint16_t>(mask);
}

bool VlArbitrationTable::valid() const noexcept {
  for (const auto& e : high_)
    if (e.active() && e.vl >= kManagementVl) return false;
  for (const auto& e : low_)
    if (e.active() && e.vl >= kManagementVl) return false;
  return true;
}

}  // namespace ibarb::iba
