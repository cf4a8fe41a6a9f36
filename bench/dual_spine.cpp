#include "dual_spine.hpp"

#include <limits>
#include <vector>

namespace ibarb::bench {

DualSpineShape dual_spine_from_cli(const util::Cli& cli) {
  constexpr std::int64_t kMaxCount = std::numeric_limits<unsigned>::max();
  const auto count = [&](const char* flag, unsigned def) {
    return static_cast<unsigned>(cli.get_int_in(flag, def, 1, kMaxCount));
  };
  DualSpineShape s;
  s.spines = count("spines", s.spines);
  s.leaves = count("leaves", s.leaves);
  s.hosts_per_leaf = count("hosts-per-leaf", s.hosts_per_leaf);
  return s;
}

network::FabricGraph make_dual_spine(const DualSpineShape& shape) {
  network::FabricGraph g;
  const iba::Link fast{iba::LinkRate::k4x, 2};
  const iba::Link slow{iba::LinkRate::k1x, 2};
  std::vector<iba::NodeId> spine(shape.spines);
  for (auto& s : spine) s = g.add_switch(shape.leaves);
  std::vector<iba::NodeId> leaf(shape.leaves);
  for (auto& l : leaf) l = g.add_switch(shape.spines + shape.hosts_per_leaf);
  for (unsigned l = 0; l < shape.leaves; ++l)
    for (unsigned t = 0; t < shape.spines; ++t)
      g.connect(leaf[l], static_cast<iba::PortIndex>(t), spine[t],
                static_cast<iba::PortIndex>(l), t == 0 ? fast : slow);
  for (const auto l : leaf)
    for (unsigned h = 0; h < shape.hosts_per_leaf; ++h) {
      const auto host = g.add_host();
      g.connect(host, 0, l, static_cast<iba::PortIndex>(shape.spines + h),
                fast);
    }
  return g;
}

}  // namespace ibarb::bench
