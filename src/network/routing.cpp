#include "network/routing.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace ibarb::network {

RoutesBuilder::RoutesBuilder(const FabricGraph& g, std::string engine_name) {
  r_.graph_ = &g;
  r_.engine_ = std::move(engine_name);
  r_.switch_ids_ = g.switches();
  r_.host_ids_ = g.hosts();
  if (r_.switch_ids_.empty())
    throw std::runtime_error("no switches in fabric");

  r_.dense_.assign(g.node_count(), 0);
  for (std::uint32_t i = 0; i < r_.switch_ids_.size(); ++i)
    r_.dense_[r_.switch_ids_[i]] = i;
  for (std::uint32_t i = 0; i < r_.host_ids_.size(); ++i)
    r_.dense_[r_.host_ids_[i]] = i;

  const std::uint64_t n_sw = r_.switch_ids_.size();
  r_.row_off_.resize(n_sw + 1);
  for (std::uint64_t s = 0; s <= n_sw; ++s) r_.row_off_[s] = s * n_sw;
  r_.ports_.assign(n_sw * n_sw, kNoRoute);

  r_.host_sw_.resize(r_.host_ids_.size());
  r_.host_port_.resize(r_.host_ids_.size());
  for (std::uint32_t h = 0; h < r_.host_ids_.size(); ++h) {
    const PortRef uplink = g.host_uplink(r_.host_ids_[h]);
    r_.host_sw_[h] = r_.dense_[uplink.node];
    r_.host_port_[h] = uplink.port;
  }
}

void RoutesBuilder::set_vl(std::uint32_t s, std::uint32_t t,
                             iba::VirtualLane vl) {
  if (r_.vls_.empty()) r_.vls_.assign(r_.ports_.size(), 0);
  r_.vls_[r_.row_off_[s] + t] = vl;
}

void RoutesBuilder::set_levels(std::vector<unsigned> levels,
                                 iba::NodeId root) {
  assert(levels.size() == r_.switch_ids_.size());
  r_.switch_level_ = std::move(levels);
  r_.root_ = root;
}

Routes RoutesBuilder::build() && {
  // Every switch must route every *host-bearing* destination switch: that
  // is what LFT programming and the data path consult. Columns for hostless
  // destinations (e.g. spines) may stay kNoRoute.
  std::vector<char> bearing(r_.switch_ids_.size(), 0);
  for (const auto t : r_.host_sw_) bearing[t] = 1;
  for (std::uint32_t t = 0; t < r_.switch_ids_.size(); ++t) {
    if (!bearing[t]) continue;
    for (std::uint32_t s = 0; s < r_.switch_ids_.size(); ++s) {
      if (s == t) continue;
      if (r_.ports_[r_.row_off_[s] + t] == kNoRoute)
        throw std::runtime_error("routing engine '" + r_.engine_ +
                                 "' left switch " +
                                 std::to_string(r_.switch_ids_[s]) +
                                 " without a route to switch " +
                                 std::to_string(r_.switch_ids_[t]));
    }
  }
  return std::move(r_);
}

std::vector<PortRef> Routes::path(iba::NodeId src_host,
                                  iba::NodeId dst_host) const {
  std::vector<PortRef> out;
  for_each_hop(src_host, dst_host, [&out](const PortRef& port) {
    out.push_back(port);
    return true;
  });
  return out;
}

unsigned Routes::hops(iba::NodeId src_host, iba::NodeId dst_host) const {
  assert(graph_ != nullptr);
  const auto h = dense_[dst_host];
  const auto sink = host_sw_[h];
  std::uint32_t at = dense_[graph_->host_uplink(src_host).node];
  unsigned n = 1;  // the delivery hop out of the sink switch
  while (at != sink) {
    const auto port = ports_[row_off_[at] + sink];
    assert(port != kNoRoute);
    const auto peer = graph_->peer(switch_ids_[at], port);
    assert(peer.has_value() && graph_->is_switch(peer->node));
    at = dense_[peer->node];
    ++n;
    assert(n <= graph_->node_count() && "routing loop");
  }
  return n;
}

unsigned Routes::level(iba::NodeId sw) const {
  if (switch_level_.empty())
    throw std::logic_error("engine '" + engine_ +
                           "' defines no up*/down* levels");
  return switch_level_.at(dense_.at(sw));
}

bool Routes::is_up_hop(iba::NodeId a, iba::NodeId b) const {
  const unsigned la = level(a);
  const unsigned lb = level(b);
  if (lb != la) return lb < la;
  return b < a;
}

bool cdg_acyclic(const Routes& r) {
  const auto& g = r.graph();
  const auto& sws = r.switch_ids();
  std::vector<std::uint32_t> dense(g.node_count(), 0);
  unsigned max_ports = 1;
  for (std::uint32_t i = 0; i < sws.size(); ++i) {
    dense[sws[i]] = i;
    max_ports = std::max(max_ports, g.port_count(sws[i]));
  }
  const auto chan = [&](iba::NodeId sw, iba::PortIndex port,
                        iba::VirtualLane vl) -> std::uint64_t {
    return (std::uint64_t(dense[sw]) * max_ports + port) * r.vl_layers() +
           vl;
  };
  std::unordered_set<std::uint64_t> edges;
  edges.reserve(sws.size() * sws.size() / 4);
  for (const auto t : sws) {
    for (const auto s : sws) {
      if (s == t) continue;
      const auto port = r.switch_out_port(s, t);
      if (port == kNoRoute) continue;
      const auto peer = g.peer(s, port);
      if (!peer || peer->node == t || !g.is_switch(peer->node)) continue;
      const auto next = r.switch_out_port(peer->node, t);
      if (next == kNoRoute) continue;
      edges.insert(chan(s, port, r.switch_vl(s, t)) << 32 |
                   chan(peer->node, next, r.switch_vl(peer->node, t)));
    }
  }
  // Kahn's algorithm over the deduplicated edges of the dense channel space.
  const std::size_t channels =
      std::size_t{sws.size()} * max_ports * r.vl_layers();
  std::vector<std::vector<std::uint32_t>> adj(channels);
  std::vector<std::uint32_t> indeg(channels, 0);
  for (const auto e : edges) {
    adj[e >> 32].push_back(static_cast<std::uint32_t>(e));
    ++indeg[static_cast<std::uint32_t>(e)];
  }
  std::vector<std::uint32_t> ready;
  for (std::uint32_t c = 0; c < channels; ++c)
    if (indeg[c] == 0) ready.push_back(c);
  std::size_t seen = 0;
  while (!ready.empty()) {
    const auto c = ready.back();
    ready.pop_back();
    ++seen;
    for (const auto n : adj[c])
      if (--indeg[n] == 0) ready.push_back(n);
  }
  return seen == channels;
}

}  // namespace ibarb::network
