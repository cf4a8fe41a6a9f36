#include "network/routing_engine.hpp"

#include <cstdlib>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace ibarb::network {

namespace {

constexpr unsigned kUnreached = std::numeric_limits<unsigned>::max();

// ---------------------------------------------------------------------------
// updown — the paper's deadlock-free up*/down* pass for irregular networks.
//
// This is the pre-registry up*/down* routing body, reorganized around
// one observation that makes it (and the CSR table) scale: the per-
// destination computation only ever depended on the destination host's
// switch, so it now runs once per destination *switch* instead of once per
// host. The per-sink math — down-BFS, then a multi-source Dijkstra over up
// hops, preferring the all-down continuation when optimal — is unchanged
// line for line, so the resulting tables are pinned table-for-table against
// the old pass by tests/test_routing_engines.cpp.
// ---------------------------------------------------------------------------
class UpdownEngine final : public RoutingEngine {
 public:
  std::string_view name() const noexcept override { return "updown"; }
  std::string_view description() const noexcept override {
    return "deadlock-free up*/down* (BFS tree from highest-degree root); "
           "routes any connected fabric";
  }

  Routes compute(const FabricGraph& g) const override {
    if (!g.connected()) throw std::runtime_error("fabric is disconnected");

    RoutesBuilder b(g, "updown");
    const std::uint32_t n_sw = b.n_switches();

    // Root: the highest-degree switch (ties -> lowest id) gives the
    // shallowest tree, the usual up*/down* heuristic.
    iba::NodeId root = b.switch_id(0);
    unsigned best_degree = 0;
    for (std::uint32_t i = 0; i < n_sw; ++i) {
      const auto s = b.switch_id(i);
      unsigned deg = 0;
      for (unsigned p = 0; p < g.port_count(s); ++p) {
        const auto peer = g.peer(s, static_cast<iba::PortIndex>(p));
        if (peer && g.is_switch(peer->node)) ++deg;
      }
      if (deg > best_degree) {
        best_degree = deg;
        root = s;
      }
    }

    // BFS levels over the switch-only graph.
    std::vector<unsigned> level(n_sw, kUnreached);
    {
      std::queue<iba::NodeId> frontier;
      level[b.dense_switch(root)] = 0;
      frontier.push(root);
      while (!frontier.empty()) {
        const auto at = frontier.front();
        frontier.pop();
        for (unsigned p = 0; p < g.port_count(at); ++p) {
          const auto peer = g.peer(at, static_cast<iba::PortIndex>(p));
          if (!peer || !g.is_switch(peer->node)) continue;
          auto& lvl = level[b.dense_switch(peer->node)];
          if (lvl == kUnreached) {
            lvl = level[b.dense_switch(at)] + 1;
            frontier.push(peer->node);
          }
        }
      }
      for (const auto lvl : level)
        if (lvl == kUnreached)
          throw std::runtime_error("switch graph is disconnected");
    }

    // Hop x -> y climbs toward the root iff y's level is smaller (ties by
    // node id). Same tie-break as Routes::is_up_hop.
    const auto is_up_hop = [&](iba::NodeId x, iba::NodeId y) {
      const unsigned lx = level[b.dense_switch(x)];
      const unsigned ly = level[b.dense_switch(y)];
      if (ly != lx) return ly < lx;
      return y < x;
    };

    // Per destination switch (the sink): build legal next hops everywhere.
    std::vector<unsigned> down_dist(n_sw), dist(n_sw);
    std::vector<iba::PortIndex> down_port(n_sw), up_port(n_sw);
    for (std::uint32_t t = 0; t < n_sw; ++t) {
      const auto sink = b.switch_id(t);

      // down_dist[s]: shortest all-down path s -> sink. BFS climbing from
      // the sink: predecessor s reaches x via a down hop iff x -> s is up.
      down_dist.assign(n_sw, kUnreached);
      down_port.assign(n_sw, kNoRoute);
      {
        std::queue<iba::NodeId> frontier;
        down_dist[t] = 0;
        frontier.push(sink);
        while (!frontier.empty()) {
          const auto x = frontier.front();
          frontier.pop();
          for (unsigned p = 0; p < g.port_count(x); ++p) {
            const auto peer = g.peer(x, static_cast<iba::PortIndex>(p));
            if (!peer || !g.is_switch(peer->node)) continue;
            const auto s = peer->node;
            if (!is_up_hop(x, s)) continue;  // need hop s->x to be down
            if (down_dist[b.dense_switch(s)] != kUnreached) continue;
            down_dist[b.dense_switch(s)] = down_dist[b.dense_switch(x)] + 1;
            down_port[b.dense_switch(s)] = peer->port;
            frontier.push(s);
          }
        }
      }

      // dist[s]: shortest legal (up* then down*) path length. Multi-source
      // uniform-weight Dijkstra seeded with the all-down distances,
      // expanding backwards over up hops (s -> m up).
      dist = down_dist;
      up_port.assign(n_sw, kNoRoute);
      using Item = std::pair<unsigned, iba::NodeId>;  // (dist, switch)
      std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
      for (std::uint32_t s = 0; s < n_sw; ++s)
        if (dist[s] != kUnreached) pq.emplace(dist[s], b.switch_id(s));
      while (!pq.empty()) {
        const auto [d, m] = pq.top();
        pq.pop();
        if (d != dist[b.dense_switch(m)]) continue;  // stale
        for (unsigned p = 0; p < g.port_count(m); ++p) {
          const auto peer = g.peer(m, static_cast<iba::PortIndex>(p));
          if (!peer || !g.is_switch(peer->node)) continue;
          const auto s = peer->node;
          if (!is_up_hop(s, m)) continue;  // expanding s -> m up hops only
          if (dist[b.dense_switch(s)] <= d + 1) continue;
          dist[b.dense_switch(s)] = d + 1;
          up_port[b.dense_switch(s)] = peer->port;
          pq.emplace(d + 1, s);
        }
      }

      for (std::uint32_t s = 0; s < n_sw; ++s) {
        if (s == t) continue;
        if (dist[s] == kUnreached)
          throw std::runtime_error(
              "no legal up*/down* path to a destination");
        // Prefer the all-down continuation when it is optimal; once a
        // packet descends, every later switch also satisfies this and
        // keeps descending, so chained paths stay legal.
        b.set_port(s, t, down_dist[s] == dist[s] ? down_port[s]
                                                 : up_port[s]);
      }
    }

    b.set_levels(std::move(level), root);
    return std::move(b).build();
  }
};

// ---------------------------------------------------------------------------
// minimal-vl-escape — dimension-order / minimal routing with escape VLs.
//
// Tori: dimension-order (x, then y, then z), shortest way around each ring
// (ties toward +). The VL on each hop is a pure function of (current
// switch, destination): VL0 while the remaining path in the current
// dimension still crosses that ring's dateline (the wrap edge), VL1 after
// (or when it never will). The dateline edge is therefore only ever
// occupied on VL0, and a VL0 packet becomes VL1 immediately after crossing,
// so each (direction, VL) channel class is a path, not a cycle; dimension
// order makes the cross-dimension dependencies acyclic. 2 VLs total.
//
// Dragonfly: canonical minimal l-g-l — local hop to the gateway router,
// one global hop, local hop inside the destination group. Global and
// source-group-local hops ride VL0; destination-group-local hops ride VL1
// (the D3R-style escape: the only local->local dependency a minimal path
// can create is through the VL bump, which orders it). 2 VLs total.
//
// Requires the generator's TopologyHint; a degraded re-sweep copy carries
// none, and dimension-order on a holey torus would blackhole — so this
// engine refuses hintless graphs and the subnet manager falls back to
// updown.
// ---------------------------------------------------------------------------
class MinimalVlEscapeEngine final : public RoutingEngine {
 public:
  std::string_view name() const noexcept override {
    return "minimal-vl-escape";
  }
  std::string_view description() const noexcept override {
    return "minimal/dimension-order with dateline (torus) or "
           "destination-group (dragonfly) escape VLs";
  }

  Routes compute(const FabricGraph& g) const override {
    const auto& hint = g.topology_hint();
    if (hint.family == "mesh2d" || hint.family == "torus2d")
      return route_torus(g, {hint.dims.at(0), hint.dims.at(1)},
                         hint.family == "torus2d");
    if (hint.family == "torus3d")
      return route_torus(g, {hint.dims.at(0), hint.dims.at(1),
                             hint.dims.at(2)},
                         true);
    if (hint.family == "dragonfly") return route_dragonfly(g, hint);
    throw std::runtime_error(
        "minimal-vl-escape needs a mesh2d|torus2d|torus3d|dragonfly "
        "topology hint; this graph has " +
        (hint.empty() ? std::string("none (irregular or degraded fabric)")
                      : "'" + hint.family + "'"));
  }

 private:
  /// Shared mesh/torus dimension-order pass. Switch with coordinates
  /// (c[0], c[1], ...) has dense index sum(c[d] * stride[d]); ports are
  /// (2d) = -dim d, (2d+1) = +dim d — matching gen::mesh2d/torus wiring
  /// (0=W, 1=E, 2=N, 3=S, then -z, +z).
  static Routes route_torus(const FabricGraph& g,
                            std::vector<std::uint32_t> dim, bool wrap) {
    RoutesBuilder b(g, "minimal-vl-escape");
    std::uint64_t expect = 1;
    for (const auto d : dim) expect *= d;
    if (expect != b.n_switches())
      throw std::runtime_error("topology hint dims do not match fabric");

    const auto coord = [&](std::uint32_t s, unsigned d) {
      for (unsigned i = 0; i < d; ++i) s /= dim[i];
      return s % dim[d];
    };

    for (std::uint32_t s = 0; s < b.n_switches(); ++s) {
      for (std::uint32_t t = 0; t < b.n_switches(); ++t) {
        if (s == t) continue;
        // First dimension (lowest index) where the coordinates differ is
        // the one we route in next.
        unsigned d = 0;
        while (coord(s, d) == coord(t, d)) ++d;
        const std::uint32_t cs = coord(s, d);
        const std::uint32_t ct = coord(t, d);
        bool forward;
        bool crosses = false;  // remaining travel wraps over the dateline
        if (!wrap) {
          forward = ct > cs;
        } else {
          const std::uint32_t n = dim[d];
          const std::uint32_t df = (ct + n - cs) % n;
          forward = df <= n - df;  // tie -> +
          crosses = forward ? cs > ct : cs < ct;
        }
        b.set_port(s, t,
                   static_cast<iba::PortIndex>(2 * d + (forward ? 1 : 0)));
        if (wrap) b.set_vl(s, t, crosses ? 0 : 1);
      }
    }
    if (wrap) b.set_vl_layers(2);
    return std::move(b).build();
  }

  /// Canonical dragonfly (a routers/group, h globals/router, g groups):
  /// router ports are 0..a-2 local (port toward router j: j minus one if
  /// j > own index), a-1..a+h-2 global, then hosts. Global channel k of
  /// group u (router k/h, port a-1+k%h) lands in group (u+k+1) mod g,
  /// whose return channel is g-2-k.
  static Routes route_dragonfly(const FabricGraph& g,
                                const TopologyHint& hint) {
    const std::uint32_t a = hint.dims.at(0);
    const std::uint32_t h = hint.dims.at(1);
    const std::uint32_t groups = hint.dims.at(2);
    RoutesBuilder b(g, "minimal-vl-escape");
    if (static_cast<std::uint64_t>(a) * groups != b.n_switches())
      throw std::runtime_error("topology hint dims do not match fabric");

    const auto local_port = [&](std::uint32_t from, std::uint32_t to) {
      return static_cast<iba::PortIndex>(to < from ? to : to - 1);
    };

    for (std::uint32_t s = 0; s < b.n_switches(); ++s) {
      const std::uint32_t gs = s / a, ls = s % a;
      for (std::uint32_t t = 0; t < b.n_switches(); ++t) {
        if (s == t) continue;
        const std::uint32_t gt = t / a, lt = t % a;
        if (gs == gt) {
          // Distribution hop inside the destination group: escape VL.
          b.set_port(s, t, local_port(ls, lt));
          b.set_vl(s, t, 1);
          continue;
        }
        const std::uint32_t k = (gt + groups - gs - 1) % groups;
        const std::uint32_t gateway = k / h;
        if (ls == gateway) {
          b.set_port(s, t, static_cast<iba::PortIndex>(a - 1 + k % h));
        } else {
          b.set_port(s, t, local_port(ls, gateway));
        }
        b.set_vl(s, t, 0);
      }
    }
    b.set_vl_layers(2);
    return std::move(b).build();
  }
};

// ---------------------------------------------------------------------------
// fattree-dmodk — destination-mod-k up-path selection on fat trees.
//
// k-ary n-tree: switches are <digits w, level l>; climbing from level l,
// the up port is chosen by the *destination's* digit at that level
// (d-mod-k), so the path to a fixed destination is deterministic (packets
// stay in order) while different destinations fan out over all up ports.
// Once the forced least-common-ancestor level is reached the switch is an
// ancestor of the destination and the path descends by destination digits.
// Up-then-down => acyclic channel dependencies, no VLs needed.
//
// 2-level spine/leaf (fattree2): up port = destination-leaf mod spines,
// spine's down port = destination leaf — the degenerate n=2 case of the
// same idea, kept for the paper's original server-room shape.
// ---------------------------------------------------------------------------
class FattreeDmodkEngine final : public RoutingEngine {
 public:
  std::string_view name() const noexcept override { return "fattree-dmodk"; }
  std::string_view description() const noexcept override {
    return "destination-mod-k up-path selection on k-ary n-trees and "
           "spine/leaf fat trees";
  }

  Routes compute(const FabricGraph& g) const override {
    const auto& hint = g.topology_hint();
    if (hint.family == "fattree") return route_kary(g, hint);
    if (hint.family == "fattree2") return route_two_level(g, hint);
    throw std::runtime_error(
        "fattree-dmodk needs a fattree|fattree2 topology hint; this graph "
        "has " +
        (hint.empty() ? std::string("none (irregular or degraded fabric)")
                      : "'" + hint.family + "'"));
  }

 private:
  static Routes route_kary(const FabricGraph& g, const TopologyHint& hint) {
    const std::uint32_t k = hint.dims.at(0);
    const std::uint32_t n = hint.dims.at(1);
    std::uint64_t per_level = 1;
    for (std::uint32_t i = 1; i < n; ++i) per_level *= k;
    RoutesBuilder b(g, "fattree-dmodk");
    if (per_level * n != b.n_switches())
      throw std::runtime_error("topology hint dims do not match fabric");

    // Dense index = level * per_level + w; hosts hang off level 0. Only
    // level-0 switches are destinations (spine columns stay unrouted).
    std::vector<std::uint64_t> pow(n, 1);
    for (std::uint32_t i = 1; i < n; ++i) pow[i] = pow[i - 1] * k;

    for (std::uint32_t s = 0; s < b.n_switches(); ++s) {
      const std::uint32_t l = static_cast<std::uint32_t>(s / per_level);
      const std::uint64_t w = s % per_level;
      for (std::uint64_t wt = 0; wt < per_level; ++wt) {
        const auto t = static_cast<std::uint32_t>(wt);
        if (s == t) continue;
        iba::PortIndex port;
        if (l > 0 && w / pow[l] == wt / pow[l]) {
          // Ancestor of every host on leaf wt: descend by the destination
          // digit below this level.
          port = static_cast<iba::PortIndex>(wt / pow[l - 1] % k);
        } else {
          // Climb; the destination's digit at this level picks the parent.
          port = static_cast<iba::PortIndex>(k + wt / pow[l] % k);
        }
        b.set_port(s, t, port);
      }
    }
    return std::move(b).build();
  }

  static Routes route_two_level(const FabricGraph& g,
                                const TopologyHint& hint) {
    const std::uint32_t spines = hint.dims.at(0);
    const std::uint32_t leaves = hint.dims.at(1);
    RoutesBuilder b(g, "fattree-dmodk");
    if (spines + leaves != b.n_switches())
      throw std::runtime_error("topology hint dims do not match fabric");

    // Dense index: spines 0..spines-1 then leaves; leaf port t reaches
    // spine t, spine port l reaches leaf l (gen::fat_tree2 wiring).
    for (std::uint32_t lt = 0; lt < leaves; ++lt) {
      const std::uint32_t t = spines + lt;
      for (std::uint32_t sp = 0; sp < spines; ++sp)
        b.set_port(sp, t, static_cast<iba::PortIndex>(lt));
      for (std::uint32_t lf = 0; lf < leaves; ++lf)
        if (lf != lt)
          b.set_port(spines + lf, t,
                     static_cast<iba::PortIndex>(lt % spines));
    }
    return std::move(b).build();
  }
};

const UpdownEngine kUpdown;
const MinimalVlEscapeEngine kMinimalVlEscape;
const FattreeDmodkEngine kFattreeDmodk;

}  // namespace

const std::vector<const RoutingEngine*>& routing_engines() {
  static const std::vector<const RoutingEngine*> kAll{
      &kUpdown, &kMinimalVlEscape, &kFattreeDmodk};
  return kAll;
}

const RoutingEngine& routing_engine(std::string_view name) {
  for (const auto* e : routing_engines())
    if (e->name() == name) return *e;
  throw std::invalid_argument("unknown routing engine '" + std::string(name) +
                              "' (expected " +
                              std::string(kRoutingEngineNames) + ")");
}

bool is_routing_engine(std::string_view name) noexcept {
  for (const auto* e : routing_engines())
    if (e->name() == name) return true;
  return false;
}

std::string routing_engine_from_env(std::string_view fallback) {
  const char* raw = std::getenv("IBARB_ROUTING");
  if (raw == nullptr || *raw == '\0') return std::string(fallback);
  if (!is_routing_engine(raw))
    throw std::invalid_argument("IBARB_ROUTING: unknown routing engine '" +
                                std::string(raw) + "' (expected " +
                                std::string(kRoutingEngineNames) + ")");
  return std::string(raw);
}

Routes compute_routes(const FabricGraph& g, std::string_view engine) {
  return routing_engine(engine).compute(g);
}

}  // namespace ibarb::network
