// Destination-based forwarding tables, engine-agnostic.
//
// A `Routes` object answers "which output port does switch S use for packets
// addressed to host H" in O(1) with zero allocation. It is produced by a
// `RoutingEngine` (see routing_engine.hpp); the classical deadlock-free
// up*/down* pass for irregular networks is the `updown` engine and remains
// the default.
//
// Memory model (the reason this scales to 100k hosts): the old
// representation was a dense `vector<vector<PortIndex>>` indexed
// [switch][host] — per-destination-host columns, one heap block per switch.
// But destination-based forwarding only ever depends on the *switch* a host
// hangs off: two hosts on the same leaf are indistinguishable to every other
// switch, and the final delivery hop is just the host's uplink port. So the
// table is stored as one flat CSR-indexed uint8_t array with a row per
// switch and a column per destination *switch*, plus two per-host arrays
// (sink switch, uplink port). A 110k-host 48-ary 3-tree has 6912 switches:
// 6912^2 = 48 MB of ports, instead of ~740 MB of per-host columns.
//
// Engines that need virtual-lane transitions for deadlock freedom (escape
// VLs on a torus, group-local VLs on a dragonfly) attach a parallel VL
// table with the same shape; `vl(sw, dst)` is the lane a packet to `dst`
// must occupy when leaving `sw`. Engines without VL requirements leave it
// absent and `vl()` returns 0.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "network/graph.hpp"

namespace ibarb::network {

inline constexpr iba::PortIndex kNoRoute = 0xFF;

class Routes {
 public:
  /// Output port at switch `sw` for packets addressed to `dst_host`.
  iba::PortIndex out_port(iba::NodeId sw, iba::NodeId dst_host) const {
    const auto s = dense_[sw];
    const auto h = dense_[dst_host];
    const auto t = host_sw_[h];
    if (s == t) return host_port_[h];
    const auto port = ports_[row_off_[s] + t];
    assert(port != kNoRoute);
    return port;
  }

  /// Output port at switch `sw` toward destination *switch* `dst_sw`
  /// (kNoRoute when the engine defined no route to that switch — e.g.
  /// spine switches, which terminate no hosts). Tests and the
  /// channel-dependency analysis walk tables switch-to-switch with this.
  iba::PortIndex switch_out_port(iba::NodeId sw, iba::NodeId dst_sw) const {
    return ports_[row_off_[dense_[sw]] + dense_[dst_sw]];
  }

  /// Virtual lane a packet to `dst_host` occupies on the link out of `sw`.
  /// Always 0 for engines that need no VL layering.
  iba::VirtualLane vl(iba::NodeId sw, iba::NodeId dst_host) const {
    if (vls_.empty()) return 0;
    const auto s = dense_[sw];
    const auto h = dense_[dst_host];
    const auto t = host_sw_[h];
    if (s == t) return 0;  // delivery hop: host buffer is a sink
    return vls_[row_off_[s] + t];
  }

  /// Same, toward a destination switch (for table-level analysis).
  iba::VirtualLane switch_vl(iba::NodeId sw, iba::NodeId dst_sw) const {
    if (vls_.empty()) return 0;
    return vls_[row_off_[dense_[sw]] + dense_[dst_sw]];
  }

  /// Output ports traversed from source host to destination host, in order:
  /// the host's own port 0 first, then one output port per switch crossed.
  std::vector<PortRef> path(iba::NodeId src_host, iba::NodeId dst_host) const;

  /// Walks the same ports as path() without allocating, calling
  /// `visit(const PortRef&)` on each in order; the walk stops early when
  /// `visit` returns false. Returns true when every port was visited.
  template <class Visit>
  bool for_each_hop(iba::NodeId src_host, iba::NodeId dst_host,
                    Visit&& visit) const {
    assert(graph_ != nullptr);
    if (!visit(PortRef{src_host, 0})) return false;
    iba::NodeId at = graph_->host_uplink(src_host).node;
    [[maybe_unused]] std::size_t visited = 1;
    while (true) {
      const auto port = out_port(at, dst_host);
      if (!visit(PortRef{at, port})) return false;
      const auto peer = graph_->peer(at, port);
      assert(peer.has_value());
      if (peer->node == dst_host) return true;
      assert(graph_->is_switch(peer->node));
      at = peer->node;
      ++visited;
      assert(visited <= graph_->node_count() && "routing loop");
    }
  }

  /// Switches crossed between the two hosts (path length minus the host).
  /// Walks the table directly — no allocation.
  unsigned hops(iba::NodeId src_host, iba::NodeId dst_host) const;

  /// True when the engine produced up*/down* levels (only the `updown`
  /// engine does); `level`, `is_up_hop`, and `root` require it.
  bool has_levels() const noexcept { return !switch_level_.empty(); }

  /// BFS level of a switch in the up*/down* tree (root = 0). Exposed for
  /// tests that verify path legality.
  unsigned level(iba::NodeId sw) const;

  /// True when hop a→b climbs toward the root (defines link direction).
  bool is_up_hop(iba::NodeId a, iba::NodeId b) const;

  iba::NodeId root() const noexcept { return root_; }

  /// Name of the engine that built this table ("updown", ...).
  const std::string& engine() const noexcept { return engine_; }

  /// Number of VL layers the table uses (1 = no escape layering).
  unsigned vl_layers() const noexcept { return vl_layers_; }

  /// Bytes held by the flat port/VL tables and per-host arrays.
  std::size_t table_bytes() const noexcept {
    return ports_.size() * sizeof(iba::PortIndex) +
           vls_.size() * sizeof(iba::VirtualLane) +
           row_off_.size() * sizeof(std::uint64_t) +
           host_sw_.size() * sizeof(std::uint32_t) +
           host_port_.size() * sizeof(iba::PortIndex);
  }

  const std::vector<iba::NodeId>& switch_ids() const noexcept {
    return switch_ids_;
  }
  const std::vector<iba::NodeId>& host_ids() const noexcept {
    return host_ids_;
  }
  const FabricGraph& graph() const noexcept { return *graph_; }

 private:
  friend class RoutesBuilder;
  const FabricGraph* graph_ = nullptr;
  iba::NodeId root_ = iba::kInvalidNode;
  std::string engine_;
  unsigned vl_layers_ = 1;
  std::vector<std::uint32_t> dense_;    ///< node id -> dense sw/host index
  std::vector<unsigned> switch_level_;  ///< dense switch -> BFS level
  std::vector<std::uint64_t> row_off_;  ///< CSR row offsets (n_sw + 1)
  std::vector<iba::PortIndex> ports_;   ///< flat [row_off_[s] + t] -> port
  std::vector<iba::VirtualLane> vls_;   ///< same shape; empty = all VL 0
  std::vector<std::uint32_t> host_sw_;  ///< dense host -> dense sink switch
  std::vector<iba::PortIndex> host_port_;  ///< dense host -> uplink port
  std::vector<iba::NodeId> host_ids_;
  std::vector<iba::NodeId> switch_ids_;
};

/// Incrementally fills a Routes object. Engines address switches by *dense
/// index* (position in FabricGraph::switches() order); the builder owns the
/// id<->dense maps and the CSR layout.
class RoutesBuilder {
 public:
  RoutesBuilder(const FabricGraph& g, std::string engine_name);

  std::uint32_t n_switches() const noexcept {
    return static_cast<std::uint32_t>(r_.switch_ids_.size());
  }
  std::uint32_t n_hosts() const noexcept {
    return static_cast<std::uint32_t>(r_.host_ids_.size());
  }
  iba::NodeId switch_id(std::uint32_t dense) const {
    return r_.switch_ids_[dense];
  }
  std::uint32_t dense_switch(iba::NodeId sw) const { return r_.dense_[sw]; }
  /// Dense index of the switch terminating the dense-indexed host.
  std::uint32_t host_switch(std::uint32_t dense_host) const {
    return r_.host_sw_[dense_host];
  }

  /// Port used at dense switch `s` toward dense destination switch `t`.
  void set_port(std::uint32_t s, std::uint32_t t, iba::PortIndex port) {
    r_.ports_[r_.row_off_[s] + t] = port;
  }
  /// VL occupied when leaving dense switch `s` toward dense switch `t`.
  /// First call allocates the VL table (all-zero).
  void set_vl(std::uint32_t s, std::uint32_t t, iba::VirtualLane vl);
  void set_vl_layers(unsigned layers) { r_.vl_layers_ = layers; }

  /// Up*/down* metadata (levels indexed by dense switch).
  void set_levels(std::vector<unsigned> levels, iba::NodeId root);

  Routes build() &&;

 private:
  Routes r_;
};

/// Builds forwarding tables with the named engine (see routing_engine.hpp
/// for the registry). Throws std::runtime_error if the fabric is
/// disconnected or the engine cannot route it, std::invalid_argument for an
/// unknown engine name.
Routes compute_routes(const FabricGraph& g, std::string_view engine = "updown");

}  // namespace ibarb::network
