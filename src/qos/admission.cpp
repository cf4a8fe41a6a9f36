#include "qos/admission.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace ibarb::qos {

AdmissionControl::AdmissionControl(const network::FabricGraph& graph,
                                   const network::Routes& routes,
                                   std::vector<SlProfile> catalogue,
                                   Config cfg)
    : graph_(graph), routes_(routes), catalogue_(std::move(catalogue)),
      cfg_(cfg) {
  // Eagerly create a manager for every wired output port so program() gives
  // all ports their low-priority (best-effort) configuration even before any
  // reservation lands on them. Nodes and ports ascend, so managers_ comes out
  // in key order.
  const auto low = low_priority_config(catalogue_);
  port_base_.reserve(graph_.node_count() + 1);
  for (iba::NodeId node = 0; node < graph_.node_count(); ++node) {
    port_base_.push_back(static_cast<std::uint32_t>(port_slot_.size()));
    const unsigned ports = graph_.is_switch(node) ? graph_.port_count(node) : 1;
    for (unsigned p = 0; p < ports; ++p) {
      const auto port = static_cast<iba::PortIndex>(p);
      if (!graph_.peer(node, port)) {
        port_slot_.push_back(kNoManager);
        continue;
      }
      const auto key = static_cast<std::uint64_t>(node) * 256 + port;
      arbtable::TableManager::Config mc;
      mc.link_data_mbps = iba::link_mbps(graph_.link(node, port).rate);
      mc.reservable_fraction = cfg_.reservable_fraction;
      mc.policy = cfg_.policy;
      mc.defrag_on_release = cfg_.defrag_on_release;
      mc.seed = cfg_.seed ^ key;
      port_slot_.push_back(static_cast<std::uint32_t>(managers_.size()));
      auto& manager =
          managers_.emplace_back(PortManager{key, arbtable::TableManager(mc)})
              .manager;
      // Every port serves the best-effort family from its low table and
      // applies the configured high-priority limit.
      manager.configure_low_priority(low);
      manager.set_limit_of_high_priority(cfg_.limit_of_high_priority);
    }
  }
  port_base_.push_back(static_cast<std::uint32_t>(port_slot_.size()));
}

std::uint32_t AdmissionControl::manager_index(
    const network::PortRef& port) const noexcept {
  if (port.node >= graph_.node_count()) return kNoManager;
  const std::uint32_t at = port_base_[port.node] + port.port;
  if (at >= port_base_[port.node + 1]) return kNoManager;
  return port_slot_[at];
}

arbtable::TableManager& AdmissionControl::manager_for(
    const network::PortRef& port) {
  const auto index = manager_index(port);
  if (index == kNoManager)
    throw std::logic_error("route crosses an unwired output port");
  return managers_[index].manager;
}

const arbtable::TableManager& AdmissionControl::port_manager(
    iba::NodeId node, iba::PortIndex port) const {
  const auto index = manager_index(network::PortRef{node, port});
  if (index == kNoManager)
    throw std::out_of_range("no reservations on this port yet");
  return managers_[index].manager;
}

void AdmissionControl::release_hops(const std::vector<HopReservation>& hops) {
  for (const auto& hop : hops) {
    auto& manager = manager_for(hop.port);
    if (hop.low_table) {
      manager.remove_low_weight(hop.vl, hop.requirement.total_weight,
                                hop.mbps);
    } else {
      manager.release(hop.handle, hop.requirement, hop.mbps);
    }
  }
}

std::size_t AdmissionControl::home_position(ConnectionId id) const noexcept {
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >>
                                  index_shift_);
}

std::uint32_t AdmissionControl::find_slot(ConnectionId id) const noexcept {
  if (slot_index_.empty()) return kNoSlot;
  const std::size_t mask = slot_index_.size() - 1;
  for (std::size_t at = home_position(id);; at = (at + 1) & mask) {
    const std::uint32_t slot = slot_index_[at];
    if (slot == kNoSlot || records_[slot].id == id) return slot;
  }
}

void AdmissionControl::index_slot(std::uint32_t slot) {
  const std::size_t mask = slot_index_.size() - 1;
  std::size_t at = home_position(records_[slot].id);
  while (slot_index_[at] != kNoSlot) at = (at + 1) & mask;
  slot_index_[at] = slot;
}

void AdmissionControl::grow_index() {
  const std::size_t size = slot_index_.empty() ? 16 : 2 * slot_index_.size();
  slot_index_.assign(size, kNoSlot);
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (std::uint32_t slot = 0; slot < records_.size(); ++slot)
    if (records_[slot].id != 0) index_slot(slot);
}

Connection& AdmissionControl::insert_record(ConnectionId id) {
  assert(id != 0 && find_slot(id) == kNoSlot);
  const std::size_t indexed = records_.size() - free_slots_.size();
  if (4 * (indexed + 1) > 3 * slot_index_.size()) grow_index();
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  records_[slot].id = id;
  index_slot(slot);
  return records_[slot];
}

void AdmissionControl::erase_record(std::uint32_t slot) {
  const std::size_t mask = slot_index_.size() - 1;
  std::size_t hole = home_position(records_[slot].id);
  while (slot_index_[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home position.
  for (std::size_t at = (hole + 1) & mask; slot_index_[at] != kNoSlot;
       at = (at + 1) & mask) {
    const std::size_t home = home_position(records_[slot_index_[at]].id);
    if (((at - home) & mask) >= ((at - hole) & mask)) {
      slot_index_[hole] = slot_index_[at];
      hole = at;
    }
  }
  slot_index_[hole] = kNoSlot;
  records_[slot].id = 0;
  free_slots_.push_back(slot);
}

void AdmissionControl::require_unused_id() const {
  if (next_id_ == std::numeric_limits<ConnectionId>::max())
    throw std::length_error("connection ids exhausted");
}

ConnectionId AdmissionControl::record_admission(const ConnectionRequest& req,
                                                TrafficCategory category,
                                                iba::Cycle deadline) {
  assert(next_id_ != std::numeric_limits<ConnectionId>::max());
  Connection& conn = insert_record(next_id_++);
  conn.request = req;
  conn.hops.assign(pending_hops_.begin(), pending_hops_.end());
  conn.deadline = deadline;
  conn.live = true;
  conn.category = category;
  ++accepted_;
  return conn.id;
}

const Connection& AdmissionControl::connection(ConnectionId id) const {
  const auto slot = find_slot(id);
  if (slot == kNoSlot)
    throw std::out_of_range("unknown connection id " + std::to_string(id));
  return records_[slot];
}

std::optional<ConnectionId> AdmissionControl::request(
    const ConnectionRequest& req) {
  const SlProfile* profile = find_sl(catalogue_, req.sl);
  if (profile == nullptr || profile->max_distance == 0)
    throw std::invalid_argument("SL is not a guaranteed-traffic class");

  const bool legacy_db = cfg_.scheme == Scheme::kLegacy &&
                         profile->category == TrafficCategory::kDb;

  require_unused_id();
  pending_hops_.clear();
  const bool ok = routes_.for_each_hop(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        auto& manager = manager_for(port);
        const auto requirement = arbtable::compute_requirement(
            req.wire_mbps, manager.config().link_data_mbps, req.max_distance);
        if (!requirement) return false;
        HopReservation hop;
        hop.port = port;
        hop.requirement = *requirement;
        hop.mbps = req.wire_mbps;
        hop.vl = profile->vl;
        if (legacy_db) {
          // Prior-work scheme: DB gets only accumulated low-table weight
          // (latency structure irrelevant — no guarantee is possible there).
          hop.low_table = true;
          if (!manager.add_low_weight(profile->vl, requirement->total_weight,
                                      req.wire_mbps))
            return false;
        } else {
          const auto handle =
              manager.allocate(profile->vl, *requirement, req.wire_mbps);
          if (!handle) return false;
          hop.handle = *handle;
        }
        pending_hops_.push_back(hop);
        return true;
      });

  if (!ok) {
    // Roll back the hops already reserved.
    release_hops(pending_hops_);
    ++rejected_;
    return std::nullopt;
  }

  return record_admission(
      req, profile->category,
      end_to_end_guarantee(req.max_distance,
                           static_cast<unsigned>(pending_hops_.size()),
                           cfg_.max_packet_wire_bytes));
}

std::optional<ConnectionId> AdmissionControl::request_best_effort(
    const ConnectionRequest& req) {
  const SlProfile* profile = find_sl(catalogue_, req.sl);
  if (profile == nullptr || profile->max_distance != 0)
    throw std::invalid_argument("SL is not a best-effort class");

  require_unused_id();
  pending_hops_.clear();
  const bool ok = routes_.for_each_hop(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        auto& manager = manager_for(port);
        // Distance is irrelevant for the low table: the requirement only
        // shapes the accumulated weight and the bandwidth accounting.
        const auto requirement = arbtable::compute_requirement(
            req.wire_mbps, manager.config().link_data_mbps,
            iba::kArbTableEntries);
        if (!requirement ||
            !manager.add_low_weight(profile->vl, requirement->total_weight,
                                    req.wire_mbps))
          return false;
        HopReservation hop;
        hop.port = port;
        hop.requirement = *requirement;
        hop.mbps = req.wire_mbps;
        hop.vl = profile->vl;
        hop.low_table = true;
        pending_hops_.push_back(hop);
        return true;
      });

  if (!ok) {
    release_hops(pending_hops_);
    ++rejected_;
    return std::nullopt;
  }

  return record_admission(req, profile->category,
                          /*deadline=*/0);  // no latency guarantee
}

AdmissionControl::DegradeResult AdmissionControl::request_degrading(
    const ConnectionRequest& req) {
  DegradeResult result;
  result.id = request(req);
  if (result.id) return result;

  // Ports the request needs — only shedding load that shares one of them
  // can possibly help.
  const auto path = routes_.path(req.src_host, req.dst_host);

  const auto shed_rank = [](TrafficCategory c) -> int {
    switch (c) {
      case TrafficCategory::kCh: return 0;   // challenged: shed first
      case TrafficCategory::kBe: return 1;
      case TrafficCategory::kPbe: return 2;
      case TrafficCategory::kDbts:
      case TrafficCategory::kDb: return -1;  // guaranteed: never shed
    }
    return -1;
  };

  while (!result.id) {
    // The most sheddable overlapping victim: lowest class rank, newest id.
    const Connection* victim = nullptr;
    int victim_rank = 0;
    for (const auto& conn : records_) {
      if (!conn.live) continue;
      const int rank = shed_rank(conn.category);
      if (rank < 0) continue;
      const bool overlaps = std::any_of(
          conn.hops.begin(), conn.hops.end(), [&](const HopReservation& h) {
            return std::find(path.begin(), path.end(), h.port) != path.end();
          });
      if (!overlaps) continue;
      if (victim == nullptr || rank < victim_rank ||
          (rank == victim_rank && conn.id > victim->id)) {
        victim = &conn;
        victim_rank = rank;
      }
    }
    if (victim == nullptr) break;  // nothing sheddable left: genuine refusal
    const auto victim_id = victim->id;
    release(victim_id);
    result.shed.push_back(victim_id);
    result.id = request(req);
  }
  return result;
}

void AdmissionControl::forget(ConnectionId id) {
  const auto slot = find_slot(id);
  if (slot == kNoSlot)
    throw std::invalid_argument("forget: unknown connection");
  if (records_[slot].live)
    throw std::invalid_argument("forget: connection is still live");
  erase_record(slot);
}

bool AdmissionControl::can_admit_path(const ConnectionRequest& req) const {
  const SlProfile* profile = find_sl(catalogue_, req.sl);
  if (profile == nullptr || profile->max_distance == 0)
    throw std::invalid_argument("SL is not a guaranteed-traffic class");
  if (cfg_.scheme == Scheme::kLegacy &&
      profile->category == TrafficCategory::kDb)
    return false;  // the low-table path has no Theorem-1 guarantee to audit

  return routes_.for_each_hop(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        const auto index = manager_index(port);
        if (index == kNoManager) return false;
        const auto& manager = managers_[index].manager;
        const auto requirement = arbtable::compute_requirement(
            req.wire_mbps, manager.config().link_data_mbps, req.max_distance);
        return requirement &&
               manager.can_admit(profile->vl, *requirement, req.wire_mbps);
      });
}

std::uint64_t AdmissionControl::live_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& conn : records_)
    if (conn.live) ++n;
  return n;
}

void AdmissionControl::release(ConnectionId id) {
  const auto slot = find_slot(id);
  if (slot == kNoSlot || !records_[slot].live)
    throw std::invalid_argument("unknown or already-released connection");
  Connection& conn = records_[slot];
  release_hops(conn.hops);
  conn.live = false;
  conn.hops.clear();
}

void AdmissionControl::program(sim::Simulator& sim) const {
  for (const auto& [key, manager] : managers_) {
    const auto node = static_cast<iba::NodeId>(key / 256);
    const auto port = static_cast<iba::PortIndex>(key % 256);
    sim.set_output_arbitration(node, port, manager.table());
    sim.set_port_reserved_mbps(node, port, manager.reserved_mbps());
  }
}

bool AdmissionControl::check_all_invariants(std::string* why) const {
  for (const auto& [key, manager] : managers_)
    if (!manager.check_invariants(why)) return false;
  return true;
}

bool AdmissionControl::audit_full(std::string* why) const {
  if (!check_all_invariants(why)) return false;
  for (const auto& [key, manager] : managers_) {
    if (!manager.audit_free_set_optimality(why)) {
      if (why != nullptr)
        *why += " (port key " + std::to_string(key) + ")";
      return false;
    }
  }
  return true;
}

void AdmissionControl::attach_telemetry(obs::TelemetryRegistry& registry) {
  if (telemetry_attached_)
    throw std::logic_error("admission telemetry attached twice");
  telemetry_attached_ = true;
  registry.add_probe([this](obs::Snapshot& snap) {
    arbtable::TableManager::Stats sum;
    double reserved = 0.0;
    std::uint64_t live_seqs = 0;
    std::uint64_t free = 0;
    for (const auto& [key, manager] : managers_) {
      const auto& s = manager.stats();
      sum.allocations += s.allocations;
      sum.shares += s.shares;
      sum.reject_bandwidth += s.reject_bandwidth;
      sum.reject_entries += s.reject_entries;
      sum.releases += s.releases;
      sum.defrag_runs += s.defrag_runs;
      sum.defrag_moves += s.defrag_moves;
      reserved += manager.reserved_mbps();
      live_seqs += manager.live_sequences();
      free += manager.free_entries();
    }
    snap.add_counter("tm.allocations", sum.allocations);
    snap.add_counter("tm.shares", sum.shares);
    snap.add_counter("tm.reject_bandwidth", sum.reject_bandwidth);
    snap.add_counter("tm.reject_entries", sum.reject_entries);
    snap.add_counter("tm.releases", sum.releases);
    snap.add_counter("tm.defrag_runs", sum.defrag_runs);
    snap.add_counter("tm.defrag_moves", sum.defrag_moves);
    snap.add_counter("tm.accepted", accepted_);
    snap.add_counter("tm.rejected", rejected_);
    snap.merge_gauge("tm.live_sequences", static_cast<double>(live_seqs));
    snap.merge_gauge("tm.free_entries", static_cast<double>(free));
    snap.merge_gauge("tm.reserved_mbps", reserved);
  });
}

void AdmissionControl::save_state(util::BinWriter& w) const {
  w.put_u64(managers_.size());
  for (const auto& [key, manager] : managers_) {
    w.put_u64(key);
    manager.save_state(w);
  }
  // Live records in ascending id order, whatever slots they occupy.
  std::vector<const Connection*> live;
  for (const auto& conn : records_)
    if (conn.live) live.push_back(&conn);
  std::sort(live.begin(), live.end(),
            [](const Connection* a, const Connection* b) {
              return a->id < b->id;
            });
  w.put_u64(live.size());
  for (const Connection* record : live) {
    const Connection& conn = *record;
    w.put_u32(conn.id);
    w.put_u32(conn.request.src_host);
    w.put_u32(conn.request.dst_host);
    w.put_u8(conn.request.sl);
    w.put_u32(conn.request.max_distance);
    w.put_double(conn.request.wire_mbps);
    w.put_u64(conn.hops.size());
    for (const auto& hop : conn.hops) {
      w.put_u32(hop.port.node);
      w.put_u8(hop.port.port);
      w.put_u32(hop.handle);
      w.put_u32(hop.requirement.distance);
      w.put_u32(hop.requirement.entries);
      w.put_u32(hop.requirement.weight_per_entry);
      w.put_u32(hop.requirement.total_weight);
      w.put_double(hop.mbps);
      w.put_bool(hop.low_table);
      w.put_u8(hop.vl);
    }
    w.put_u64(conn.deadline);
    w.put_u8(static_cast<std::uint8_t>(conn.category));
  }
  w.put_u32(next_id_);
  w.put_u64(accepted_);
  w.put_u64(rejected_);
}

void AdmissionControl::load_state(util::BinReader& r) {
  const auto manager_count = r.get_u64();
  if (manager_count != managers_.size())
    throw std::runtime_error("snapshot port-manager count mismatch");
  for (std::uint64_t i = 0; i < manager_count; ++i) {
    const auto key = r.get_u64();
    const auto index =
        key / 256 < graph_.node_count()
            ? manager_index(network::PortRef{
                  static_cast<iba::NodeId>(key / 256),
                  static_cast<iba::PortIndex>(key % 256)})
            : kNoManager;
    if (index == kNoManager)
      throw std::runtime_error("snapshot references an unwired port");
    managers_[index].manager.load_state(r);
  }
  records_.clear();
  free_slots_.clear();
  std::fill(slot_index_.begin(), slot_index_.end(), kNoSlot);
  const auto live = r.get_length();
  for (std::size_t i = 0; i < live; ++i) {
    const ConnectionId id = r.get_u32();
    if (id == 0 || find_slot(id) != kNoSlot)
      throw std::runtime_error(
          "snapshot has a zero or duplicate connection id " +
          std::to_string(id));
    Connection& conn = insert_record(id);
    conn.request.src_host = r.get_u32();
    conn.request.dst_host = r.get_u32();
    conn.request.sl = r.get_u8();
    conn.request.max_distance = r.get_u32();
    conn.request.wire_mbps = r.get_double();
    conn.hops.resize(r.get_length());
    for (auto& hop : conn.hops) {
      hop.port.node = r.get_u32();
      hop.port.port = r.get_u8();
      hop.handle = r.get_u32();
      hop.requirement.distance = r.get_u32();
      hop.requirement.entries = r.get_u32();
      hop.requirement.weight_per_entry = r.get_u32();
      hop.requirement.total_weight = r.get_u32();
      hop.mbps = r.get_double();
      hop.low_table = r.get_bool();
      hop.vl = r.get_u8();
    }
    conn.deadline = r.get_u64();
    conn.category = static_cast<TrafficCategory>(r.get_u8());
    conn.live = true;
  }
  next_id_ = r.get_u32();
  if (next_id_ == 0)
    throw std::runtime_error("snapshot next connection id is 0");
  // request() mints next_id_ onwards, so every restored id must lie below
  // it, or a later admission would clash with a restored connection.
  for (const auto& conn : records_)
    if (conn.id >= next_id_)
      throw std::runtime_error("snapshot connection id " +
                               std::to_string(conn.id) +
                               " is not below the saved next id " +
                               std::to_string(next_id_));
  accepted_ = r.get_u64();
  rejected_ = r.get_u64();
}

}  // namespace ibarb::qos
