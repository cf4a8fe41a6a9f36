// The dual-spine fabric of the fault and churn benches (bench_faults,
// bench_churn): a two-level tree with asymmetric redundancy. Spine 0 (node
// 0) attaches every leaf over 4x links, the remaining spines over 1x; host
// links are 4x so leaf ingress is never the bottleneck. Routing prefers the
// fast spine, so losing one of its links moves that leaf onto a quarter of
// the reservable bandwidth — mass reroutes with real capacity pressure.
#pragma once

#include "network/graph.hpp"
#include "util/cli.hpp"

namespace ibarb::bench {

struct DualSpineShape {
  unsigned spines = 2;
  unsigned leaves = 4;
  unsigned hosts_per_leaf = 2;
};

/// Reads --spines, --leaves and --hosts-per-leaf (each >= 1; a bad value
/// throws std::invalid_argument naming the flag).
DualSpineShape dual_spine_from_cli(const util::Cli& cli);

/// Builds the fabric: spines first (node ids 0..spines-1), then leaves,
/// then each leaf's hosts. Leaf port t goes to spine t; host h of a leaf
/// sits on its port spines + h.
network::FabricGraph make_dual_spine(const DualSpineShape& shape);

}  // namespace ibarb::bench
