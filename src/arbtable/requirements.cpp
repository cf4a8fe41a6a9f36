#include "arbtable/requirements.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "arbtable/bit_reversal.hpp"

namespace ibarb::arbtable {

unsigned bandwidth_to_weight(double bandwidth_mbps, double link_data_mbps) {
  assert(bandwidth_mbps >= 0.0 && link_data_mbps > 0.0);
  const double share = bandwidth_mbps / link_data_mbps;
  // Saturate before the cast: every weight past the full table is refused
  // alike, and casting a double beyond unsigned's range is undefined.
  const double w =
      std::min(static_cast<double>(iba::kFullTableWeight + 1),
               std::ceil(share * static_cast<double>(iba::kFullTableWeight)));
  return std::max(1u, static_cast<unsigned>(w));  // a trickle needs one unit
}

double weight_to_bandwidth(unsigned weight, double link_data_mbps) {
  return static_cast<double>(weight) /
         static_cast<double>(iba::kFullTableWeight) * link_data_mbps;
}

std::optional<Requirement> compute_requirement(double bandwidth_mbps,
                                               double link_data_mbps,
                                               unsigned max_distance) {
  const unsigned d0 = floor_pow2(std::clamp(max_distance, 1u, 64u));
  const unsigned w = bandwidth_to_weight(bandwidth_mbps, link_data_mbps);
  if (w > iba::kFullTableWeight) return std::nullopt;  // exceeds the link

  const unsigned entries_for_latency = iba::kArbTableEntries / d0;
  const unsigned entries_for_weight =
      (w + iba::kMaxEntryWeight - 1) / iba::kMaxEntryWeight;
  unsigned entries =
      ceil_pow2(std::max(entries_for_latency, entries_for_weight));
  entries = std::min(entries, iba::kArbTableEntries);

  Requirement req;
  req.entries = entries;
  req.distance = iba::kArbTableEntries / entries;
  req.weight_per_entry = (w + entries - 1) / entries;
  assert(req.weight_per_entry <= iba::kMaxEntryWeight);
  req.total_weight = req.weight_per_entry * entries;
  return req;
}

}  // namespace ibarb::arbtable
