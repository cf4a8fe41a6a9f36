// Path admission control: the paper's "global frame".
//
// "Each request is studied in each node in its path, and it is only accepted
// if there are available resources" (§4.2). For every output port along the
// route — the source host interface plus each switch output — the request is
// translated to table terms (arbtable::compute_requirement) and placed by
// the TableManager; any failure rolls the whole request back.
//
// Two schemes are supported:
//  * kNewProposal (the paper): every guaranteed connection — DBTS and DB —
//    lands in the high-priority table, classified by distance.
//  * kLegacy (prior work, experiment E5): DBTS in the high table, DB as
//    plain accumulated weight in the low-priority table, where misbehaving
//    high-priority sources can starve it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arbtable/table_manager.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "obs/telemetry.hpp"
#include "qos/connection.hpp"
#include "qos/deadline.hpp"
#include "qos/traffic_classes.hpp"
#include "sim/simulator.hpp"
#include "util/binary.hpp"

namespace ibarb::qos {

enum class Scheme : std::uint8_t { kNewProposal, kLegacy };

class AdmissionControl {
 public:
  struct Config {
    arbtable::FillPolicy policy = arbtable::FillPolicy::kBitReversal;
    bool defrag_on_release = true;
    double reservable_fraction = 0.8;
    Scheme scheme = Scheme::kNewProposal;
    std::uint8_t limit_of_high_priority = iba::kUnlimitedHighPriority;
    /// Wire size of the largest packet in use: connection deadlines account
    /// for one whole-packet overdraft per arbitration entry (IBA rounds
    /// grants up to full packets).
    std::uint32_t max_packet_wire_bytes = kDefaultMaxWireBytes;
    std::uint64_t seed = 1;
  };

  /// Reads `graph` only while constructing; `routes` must outlive this.
  AdmissionControl(const network::FabricGraph& graph,
                   const network::Routes& routes,
                   std::vector<SlProfile> catalogue, Config cfg);

  /// Tries to establish a connection. On success the reservation is placed
  /// on every output port of the path and the id is returned. Throws
  /// std::invalid_argument, before reserving anything, for a best-effort SL
  /// or a rate that is NaN, infinite or negative.
  std::optional<ConnectionId> request(const ConnectionRequest& req);

  /// Admits a best-effort connection (an SL whose profile has no distance
  /// guarantee): accumulated weight on the SL's VL in every hop's
  /// low-priority table, counted against the reservable-bandwidth cap.
  /// These are the connections graceful degradation sheds first. Throws
  /// std::invalid_argument for a guaranteed SL or an invalid rate.
  std::optional<ConnectionId> request_best_effort(const ConnectionRequest& req);

  struct DegradeResult {
    std::optional<ConnectionId> id;    ///< The admitted connection, if any.
    std::vector<ConnectionId> shed;    ///< Best-effort connections released
                                       ///< to make room (caller stops their
                                       ///< flows). Empty on a clean admit.
  };

  /// Graceful degradation: like request(), but when a guaranteed-class
  /// request fails for lack of capacity, sheds best-effort connections
  /// sharing a port with the path — CH first, then BE, then PBE, newest
  /// first — and retries. DBTS/DB connections are never shed, so a
  /// guaranteed request only fails once no sheddable capacity remains.
  DegradeResult request_degrading(const ConnectionRequest& req);

  /// Tears a connection down, freeing (and defragmenting) each hop's table.
  void release(ConnectionId id);

  /// Erases the bookkeeping record of an already-released connection, so a
  /// long-running churn service stays memory-bounded. Throws if the
  /// connection is still live (release first) or unknown.
  void forget(ConnectionId id);

  /// Dry-run of request() for a guaranteed-class request: true when every
  /// output port along the path reports TableManager::can_admit. Pure — no
  /// state or RNG is touched. A request() refusal while this holds is a
  /// Theorem-1 false reject; the churn engine audits exactly that. Throws
  /// std::invalid_argument for a best-effort SL or an invalid rate.
  bool can_admit_path(const ConnectionRequest& req) const;

  /// The record of a live or released (not yet forgotten) connection.
  /// Throws std::out_of_range for an unknown id. Records live in a flat
  /// array whose slots are reused, so the reference dies at the next
  /// request(), request_best_effort(), request_degrading(), forget() or
  /// load_state(): read what you need, then drop it.
  const Connection& connection(ConnectionId id) const;
  bool is_live(ConnectionId id) const noexcept {
    const auto slot = find_slot(id);
    return slot != kNoSlot && records_[slot].live;
  }

  /// Programs every port's VLArbitrationTable and reservation annotation
  /// into the simulator. Call after establishing connections (or again
  /// after any change).
  void program(sim::Simulator& sim) const;

  const arbtable::TableManager& port_manager(iba::NodeId node,
                                             iba::PortIndex port) const;

  const std::vector<SlProfile>& catalogue() const noexcept {
    return catalogue_;
  }

  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t live_count() const noexcept;

  /// Registers a pull-probe publishing the aggregated per-port
  /// TableManager::Stats as the "tm.*" counter/gauge family. The registry
  /// must die before this AdmissionControl (the usual declaration order —
  /// admission before simulator — guarantees it); the probe is never
  /// detached. At most one registry may be attached.
  void attach_telemetry(obs::TelemetryRegistry& registry);

  /// Serializes every port manager plus the live connection records and the
  /// accept/reject accounting. Released-and-forgotten records are not
  /// written: they carry no admission state.
  void save_state(util::BinWriter& w) const;

  /// Restores state saved by save_state() into an AdmissionControl built
  /// over the same graph, routes, catalogue and Config. Existing connection
  /// records are discarded. Does NOT program any simulator — callers run
  /// configure_fabric/program afterwards. Throws std::runtime_error on
  /// mismatched topology or config fingerprints, and on a connection whose
  /// request or hop rate is NaN, infinite or negative.
  void load_state(util::BinReader& r);

  /// Consistency audit over every port manager
  /// (TableManager::check_invariants). Debug builds run this after every
  /// fault-driven or dynamic-scenario release.
  bool check_all_invariants(std::string* why = nullptr) const;

  /// The churn-service audit: check_all_invariants plus the Theorem-1 free-set
  /// optimality check (TableManager::audit_free_set_optimality) on every
  /// port. Run after every restore and every batch of churn.
  bool audit_full(std::string* why = nullptr) const;

 private:
  struct PortManager {
    std::uint64_t key;  ///< node * 256 + port.
    arbtable::TableManager manager;
  };

  /// Position of a port's manager in managers_, or kNoManager.
  std::uint32_t manager_index(const network::PortRef& port) const noexcept;
  arbtable::TableManager& manager_for(const network::PortRef& port);

  /// Undoes the reservations in `hops` (a refused request's partial path, or
  /// a released connection's whole path).
  void release_hops(const std::vector<HopReservation>& hops);

  /// Throws std::length_error when every 32-bit id has been minted; called
  /// before a request reserves any hop, so a refusal holds nothing.
  void require_unused_id() const;
  /// Records an admitted connection over pending_hops_ under a fresh id.
  ConnectionId record_admission(const ConnectionRequest& req,
                                TrafficCategory category,
                                iba::Cycle deadline);

  /// The connection records: records_ is a dense array of slots, reused
  /// through the free_slots_ stack; a free slot has id 0, which is never
  /// minted. slot_index_ maps an id to its slot by open addressing (linear
  /// probing from a Fibonacci hash of the id, backward-shift deletion, at
  /// most 3/4 full); an entry holds only the slot, the id is read back from
  /// the record. A reused slot keeps its hop list's capacity, so admission
  /// allocates nothing once the records have grown.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// The slot holding `id`, or kNoSlot.
  std::uint32_t find_slot(ConnectionId id) const noexcept;
  /// Where `id`'s probe run starts in slot_index_.
  std::size_t home_position(ConnectionId id) const noexcept;
  /// Adds the record in `slot` to slot_index_ under its id.
  void index_slot(std::uint32_t slot);
  /// Takes a free slot (or appends one) for `id` and indexes it.
  Connection& insert_record(ConnectionId id);
  /// Unindexes the record in `slot` and frees the slot.
  void erase_record(std::uint32_t slot);
  /// Doubles slot_index_ (from 16 entries) and re-indexes every record.
  void grow_index();

  const network::Routes& routes_;
  std::vector<SlProfile> catalogue_;
  Config cfg_;

  /// One manager per wired output port, in ascending key order — the order
  /// program(), save_state() and telemetry walk.
  std::vector<PortManager> managers_;
  /// Flat port index: port_slot_[port_base_[node] + port] is the position of
  /// that port's manager in managers_, or kNoManager when it has none.
  static constexpr std::uint32_t kNoManager = 0xFFFFFFFFu;
  std::vector<std::uint32_t> port_base_;
  std::vector<std::uint32_t> port_slot_;
  /// Hops of the request being placed; reused so a refusal allocates nothing.
  std::vector<HopReservation> pending_hops_;
  std::vector<Connection> records_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_index_;
  unsigned index_shift_ = 64;  ///< 64 - log2(slot_index_.size()).
  ConnectionId next_id_ = 1;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  bool telemetry_attached_ = false;
};

}  // namespace ibarb::qos
