// Tests for the admission-control churn service (src/control/): the binary
// stream primitives, the snapshot envelope, save/load round-trips at every
// layer, engine determinism and overload protection, and the headline
// property — a world restored from a mid-run snapshot finishes the run with
// exactly the same control-plane state as the uninterrupted world.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arbtable/table_manager.hpp"
#include "control/churn_engine.hpp"
#include "control/snapshot.hpp"
#include "network/graph.hpp"
#include "qos/admission.hpp"
#include "qos/traffic_classes.hpp"
#include "sim/simulator.hpp"
#include "subnet/subnet_manager.hpp"
#include "util/binary.hpp"

namespace ibarb {
namespace {

// --------------------------------------------------------------------------
// Binary stream primitives

TEST(Binary, RoundTripAllTypes) {
  util::BinWriter w;
  w.put_u8(0xAB);
  w.put_bool(true);
  w.put_bool(false);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_double(-1234.5678);
  w.put_bytes(std::vector<std::uint8_t>{1, 2, 3});

  util::BinReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.get_double(), -1234.5678);
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(Binary, UnderrunThrows) {
  util::BinWriter w;
  w.put_u32(7);
  util::BinReader r(w.bytes());
  (void)r.get_u8();
  EXPECT_THROW((void)r.get_u32(), std::runtime_error);
  for (int i = 0; i < 3; ++i) (void)r.get_u8();
  EXPECT_THROW((void)r.get_u8(), std::runtime_error);
}

TEST(Binary, OversizedLengthPrefixThrows) {
  util::BinWriter w;
  w.put_u64(1ull << 40);  // length prefix far beyond the payload
  util::BinReader r(w.bytes());
  EXPECT_THROW((void)r.get_bytes(), std::runtime_error);
}

// --------------------------------------------------------------------------
// Snapshot envelope

TEST(SnapshotEnvelope, SealOpenRoundTrip) {
  const std::vector<std::uint8_t> payload{5, 4, 3, 2, 1};
  const auto blob = control::seal_envelope(payload);
  EXPECT_EQ(control::open_envelope(blob), payload);
}

TEST(SnapshotEnvelope, DetectsDamage) {
  const std::vector<std::uint8_t> payload{9, 8, 7, 6};
  auto blob = control::seal_envelope(payload);

  auto flipped = blob;
  flipped.back() ^= 0x01;  // payload bit damage -> CRC mismatch
  EXPECT_THROW((void)control::open_envelope(flipped), std::runtime_error);

  auto truncated = blob;
  truncated.pop_back();
  EXPECT_THROW((void)control::open_envelope(truncated), std::runtime_error);

  auto wrong_magic = blob;
  wrong_magic[0] ^= 0xFF;
  EXPECT_THROW((void)control::open_envelope(wrong_magic), std::runtime_error);

  EXPECT_THROW((void)control::open_envelope({}), std::runtime_error);
}

// --------------------------------------------------------------------------
// TableManager save/load

TEST(TableManagerSnapshot, RoundTripIsBitExact) {
  arbtable::TableManager::Config cfg;
  cfg.link_data_mbps = 2000.0;
  cfg.seed = 5;
  arbtable::TableManager m(cfg);
  // Leave the manager mid-churn: live sequences, a recycled handle, stats.
  const auto r8 = *arbtable::compute_requirement(10.0, 2000.0, 8);
  const auto r16 = *arbtable::compute_requirement(4.0, 2000.0, 16);
  const auto a = *m.allocate(3, r8, 10.0);
  const auto b = *m.allocate(2, r16, 4.0);
  (void)*m.allocate(2, r16, 4.0);  // shares with b
  m.release(a, r8, 10.0);          // frees a handle, triggers defrag
  (void)b;

  util::BinWriter w;
  m.save_state(w);

  arbtable::TableManager loaded(cfg);
  util::BinReader r(w.bytes());
  loaded.load_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(loaded.check_invariants());
  EXPECT_TRUE(loaded.audit_free_set_optimality());
  EXPECT_EQ(loaded.free_entries(), m.free_entries());
  EXPECT_EQ(loaded.live_sequences(), m.live_sequences());
  EXPECT_DOUBLE_EQ(loaded.reserved_mbps(), m.reserved_mbps());
  EXPECT_EQ(loaded.stats().allocations, m.stats().allocations);
  EXPECT_EQ(loaded.stats().shares, m.stats().shares);

  util::BinWriter again;
  loaded.save_state(again);
  EXPECT_EQ(again.bytes(), w.bytes()) << "save/load must be a true inverse";
}

TEST(TableManagerSnapshot, ConfigMismatchThrows) {
  arbtable::TableManager::Config cfg;
  cfg.seed = 5;
  arbtable::TableManager m(cfg);
  util::BinWriter w;
  m.save_state(w);

  cfg.seed = 6;
  arbtable::TableManager other(cfg);
  util::BinReader r(w.bytes());
  EXPECT_THROW(other.load_state(r), std::runtime_error);
}

/// One sequence record in TableManager::save_state's layout.
struct SeqRecord {
  std::uint8_t vl = 3;
  std::uint32_t distance = 64;
  std::vector<std::uint8_t> positions{5};
  bool live = true;
};

/// A snapshot payload for `cfg` holding `seqs` and `free_handles`, with
/// every other field empty.
std::vector<std::uint8_t> manager_blob(
    const arbtable::TableManager::Config& cfg,
    const std::vector<SeqRecord>& seqs,
    const std::vector<std::uint32_t>& free_handles = {}) {
  util::BinWriter fresh;
  arbtable::TableManager(cfg).save_state(fresh);
  util::BinWriter w;
  util::BinReader header(fresh.bytes());
  for (int k = 0; k < 5; ++k) w.put_u64(header.get_u64());  // fingerprint, RNG
  w.put_u64(seqs.size());
  for (const auto& s : seqs) {
    w.put_u8(s.vl);
    w.put_u32(s.distance);
    w.put_bytes(s.positions);
    w.put_u32(s.live ? 1 : 0);  // weight per entry
    w.put_u32(s.live ? 1 : 0);  // connections
    w.put_double(0.0);
    w.put_bool(s.live);
  }
  w.put_u64(free_handles.size());
  for (const auto h : free_handles) w.put_u32(h);
  w.put_u64(iba::kMaxVirtualLanes);
  for (unsigned vl = 0; vl < iba::kMaxVirtualLanes; ++vl) w.put_u32(0);
  w.put_double(0.0);
  w.put_double(0.0);
  for (int k = 0; k < 7; ++k) w.put_u64(0);  // stats
  return w.bytes();
}

TEST(TableManagerSnapshot, MalformedSequencesAreRejected) {
  arbtable::TableManager::Config cfg;
  cfg.link_data_mbps = 2000.0;
  const auto load = [&](const std::vector<std::uint8_t>& blob) {
    arbtable::TableManager m(cfg);
    util::BinReader r(blob);
    m.load_state(r);
    std::string why;
    EXPECT_TRUE(m.check_invariants(&why)) << why;
  };
  EXPECT_NO_THROW(load(manager_blob(cfg, {SeqRecord{}})));

  SeqRecord bad_slot;
  bad_slot.positions = {64};
  SeqRecord descending;
  descending.distance = 32;
  descending.positions = {33, 1};
  SeqRecord bad_vl;
  bad_vl.vl = iba::kMaxVirtualLanes;
  SeqRecord scattered;  // distance 0 under a spaced fill policy
  scattered.distance = 0;
  for (const auto& seq : {bad_slot, descending, bad_vl, scattered})
    EXPECT_THROW(load(manager_blob(cfg, {seq})), std::runtime_error);

  const std::vector<SeqRecord> too_many(iba::kArbTableEntries + 1,
                                        SeqRecord{.live = false});
  EXPECT_THROW(load(manager_blob(cfg, too_many)), std::runtime_error);
  // Free handles must name existing, dead sequences.
  EXPECT_THROW(load(manager_blob(cfg, {SeqRecord{}}, {0})),
               std::runtime_error);
  EXPECT_THROW(load(manager_blob(cfg, {SeqRecord{}}, {7})),
               std::runtime_error);
}

// --------------------------------------------------------------------------
// Full-world harness

/// One spine, two leaves, two hosts per leaf.
network::FabricGraph make_small_fabric() {
  network::FabricGraph g;
  const iba::Link link{iba::LinkRate::k4x, 2};
  const auto spine = g.add_switch(2);
  const iba::NodeId leaf[2] = {g.add_switch(3), g.add_switch(3)};
  for (unsigned l = 0; l < 2; ++l)
    g.connect(leaf[l], 0, spine, static_cast<iba::PortIndex>(l), link);
  for (const auto l : leaf)
    for (unsigned h = 0; h < 2; ++h) {
      const auto host = g.add_host();
      g.connect(host, 0, l, static_cast<iba::PortIndex>(1 + h), link);
    }
  return g;
}

control::ChurnConfig quick_churn(std::uint64_t seed) {
  control::ChurnConfig c;
  c.tick = 1'000;
  c.horizon = 150'000;
  c.seed = seed;
  return c;
}

struct TestWorld {
  network::FabricGraph graph;
  subnet::SubnetManager sm;
  qos::AdmissionControl admission;
  sim::Simulator sim;
  std::optional<control::ChurnEngine> engine;

  explicit TestWorld(std::uint64_t seed, const control::ChurnConfig& ccfg)
      : graph(make_small_fabric()), sm(graph),
        admission(graph, sm.routes(), qos::paper_catalogue(),
                  [&] {
                    qos::AdmissionControl::Config ac;
                    ac.seed = seed;
                    return ac;
                  }()),
        sim(graph, sm.routes(), [&] {
          sim::SimConfig scfg;
          scfg.seed = seed ^ 0x5117ull;
          return scfg;
        }()) {
    admission.attach_telemetry(sim.telemetry());
    engine.emplace(sim, admission, graph, nullptr, nullptr, ccfg);
  }

  control::World refs() {
    return control::World{&admission, nullptr, nullptr, &*engine};
  }

  /// The deterministic control-plane families (ctl.*, tm.*) only: data-plane
  /// counters legitimately differ between an uninterrupted world and one
  /// rebuilt from a snapshot.
  obs::Snapshot control_telemetry() {
    obs::Snapshot out;
    const auto full = sim.telemetry_snapshot();
    for (const auto& [k, v] : full.counters)
      if (k.starts_with("ctl.") || k.starts_with("tm."))
        out.counters.emplace(k, v);
    for (const auto& [k, v] : full.gauges)
      if (k.starts_with("ctl.") || k.starts_with("tm."))
        out.gauges.emplace(k, v);
    return out;
  }
};

// --------------------------------------------------------------------------
// ChurnEngine behaviour

TEST(ChurnEngine, RunsDeterministically) {
  const auto run = [](std::uint64_t seed) {
    TestWorld w(seed, quick_churn(seed));
    w.engine->start();
    w.sm.configure_fabric(w.sim, w.admission);
    w.sim.run_until(150'000);
    std::string why;
    EXPECT_TRUE(w.admission.audit_full(&why)) << why;
    return w.control_telemetry();
  };
  const auto a = run(11);
  const auto b = run(11);
  const auto c = run(12);
  EXPECT_EQ(a, b) << "same seed must reproduce the identical run";
  EXPECT_NE(a, c) << "different seeds must actually differ";
  EXPECT_GT(a.counters.at("ctl.submitted"), 0u);
  EXPECT_GT(a.counters.at("ctl.admitted_guaranteed"), 0u);
  EXPECT_GT(a.counters.at("ctl.teardowns"), 0u);
  EXPECT_EQ(a.counters.at("ctl.false_rejects"), 0u);
}

TEST(ChurnEngine, OverloadProtectionEngages) {
  // Tiny queues + heavy arrivals + one-op service: guaranteed setups must
  // be backpressured into retries and best-effort shed at the watermark,
  // yet nothing may turn into a Theorem-1 false reject.
  auto ccfg = quick_churn(31);
  ccfg.arrivals_per_tick = 12;
  ccfg.serve_budget = 1;
  ccfg.queue_capacity = 4;
  TestWorld w(31, ccfg);
  w.engine->start();
  w.sm.configure_fabric(w.sim, w.admission);
  w.sim.run_until(150'000);
  const auto& s = w.engine->stats();
  EXPECT_GT(s.backpressured, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.load_shed, 0u);
  EXPECT_EQ(s.false_rejects, 0u);
}

TEST(ChurnEngine, SnapshotRestoreReplaysIdentically) {
  const std::uint64_t seed = 77;
  const iba::Cycle end = 150'000;

  // World A: uninterrupted, with a snapshot taken mid-run.
  TestWorld a(seed, quick_churn(seed));
  std::vector<std::uint8_t> blob;
  iba::Cycle snap_time = 0;
  a.engine->arm_snapshot(end / 2, [&](iba::Cycle now) {
    blob = control::save_world(now, seed, a.refs());
    snap_time = now;
  });
  a.engine->start();
  a.sm.configure_fabric(a.sim, a.admission);
  a.sim.run_until(end);
  ASSERT_FALSE(blob.empty());
  ASSERT_GE(snap_time, end / 2);
  EXPECT_EQ(control::peek_snapshot_time(blob), snap_time);

  // World B: fresh build, restore, replay the tail.
  TestWorld b(seed, quick_churn(seed));
  EXPECT_EQ(control::restore_world(blob, seed, b.refs()), snap_time);
  b.sm.configure_fabric(b.sim, b.admission);
  b.sim.run_until(end);

  EXPECT_EQ(a.control_telemetry(), b.control_telemetry())
      << "restored world must finish byte-identical to the uninterrupted one";
  EXPECT_EQ(a.admission.live_count(), b.admission.live_count());
  EXPECT_EQ(a.admission.accepted(), b.admission.accepted());
  EXPECT_EQ(a.admission.rejected(), b.admission.rejected());
}

TEST(Snapshot, AdmissionOnlyWorldRoundTripsAndAudits) {
  // A world holding only admission control (no injector, coordinator or
  // churn engine): the subnet-manager-only deployment.
  const std::uint64_t seed = 41;
  const auto graph = make_small_fabric();
  const subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = seed;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);
  const auto hosts = graph.hosts();
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    qos::ConnectionRequest req;
    req.src_host = hosts[i % hosts.size()];
    req.dst_host = hosts[(i + 1 + i / hosts.size()) % hosts.size()];
    if (req.src_host == req.dst_host) continue;
    req.sl = static_cast<iba::ServiceLevel>(i % 10);
    req.max_distance =
        qos::find_sl(admission.catalogue(), req.sl)->max_distance;
    req.wire_mbps = 0.5 + static_cast<double>(i % 7);
    if (admission.request(req)) ++admitted;
  }
  ASSERT_GT(admitted, 0u);

  const iba::Cycle snap_time = 12'345;
  const auto blob = control::save_world(
      snap_time, seed, control::World{&admission, nullptr, nullptr, nullptr});

  qos::AdmissionControl loaded(graph, sm.routes(), qos::paper_catalogue(), ac);
  const control::World fresh{&loaded, nullptr, nullptr, nullptr};
  EXPECT_EQ(control::restore_world(blob, seed, fresh), snap_time);
  std::string why;
  EXPECT_TRUE(loaded.audit_full(&why)) << why;
  EXPECT_EQ(loaded.live_count(), admission.live_count());
  EXPECT_EQ(control::save_world(snap_time, seed, fresh), blob)
      << "re-saving the restored world must reproduce the blob bit for bit";

  // The blob records that no engine was present; a world with one refuses it.
  TestWorld with_engine(seed, quick_churn(seed));
  EXPECT_THROW((void)control::restore_world(blob, seed, with_engine.refs()),
               std::runtime_error);
}

/// Replaces the `bytes.size()` bytes at `at` in the blob's payload and
/// reseals it, so the CRC is valid and only the payload's meaning is wrong.
std::vector<std::uint8_t> reframe(const std::vector<std::uint8_t>& blob,
                                  std::size_t at,
                                  const std::vector<std::uint8_t>& bytes) {
  auto payload = control::open_envelope(blob);
  std::copy(bytes.begin(), bytes.end(),
            payload.begin() + static_cast<std::ptrdiff_t>(at));
  return control::seal_envelope(payload);
}

std::vector<std::uint8_t> u32_bytes(std::uint32_t v) {
  util::BinWriter w;
  w.put_u32(v);
  return w.bytes();
}

TEST(Snapshot, RestoreRejectsConnectionIdsThatRequestCouldMintAgain) {
  // A restored id of 0, or one at or above the saved next id, would let a
  // later request() mint an id that is already taken. Blobs carrying such
  // ids are refused with an error naming the id, even under a valid CRC.
  const std::uint64_t seed = 43;
  const auto graph = make_small_fabric();
  const subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = seed;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);
  const auto hosts = graph.hosts();
  std::optional<qos::ConnectionId> first;
  qos::ConnectionId last = 0;
  for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
    qos::ConnectionRequest req;
    req.src_host = hosts[i];
    req.dst_host = hosts[i + 1];
    req.sl = 7;
    req.max_distance = 64;
    req.wire_mbps = 1.0;
    const auto id = admission.request(req);
    ASSERT_TRUE(id.has_value());
    if (!first) first = id;
    last = *id;
  }
  ASSERT_GT(last, *first);
  const auto blob = control::save_world(
      1, seed, control::World{&admission, nullptr, nullptr, nullptr});

  // Locate the admission state in the payload, its saved next id (followed
  // by the two u64 counters) and the first record (id, src, dst).
  util::BinWriter state;
  admission.save_state(state);
  const auto payload = control::open_envelope(blob);
  const auto begin = std::search(payload.begin(), payload.end(),
                                 state.bytes().begin(), state.bytes().end());
  ASSERT_NE(begin, payload.end());
  const auto state_at = static_cast<std::size_t>(begin - payload.begin());
  const std::size_t next_id_at = state_at + state.bytes().size() - 20;
  util::BinWriter record;
  record.put_u32(*first);
  record.put_u32(admission.connection(*first).request.src_host);
  record.put_u32(admission.connection(*first).request.dst_host);
  const auto rec = std::search(begin, payload.end(), record.bytes().begin(),
                               record.bytes().end());
  ASSERT_NE(rec, payload.end());
  const auto record_at = static_cast<std::size_t>(rec - payload.begin());

  const auto restore = [&](const std::vector<std::uint8_t>& b) {
    qos::AdmissionControl fresh(graph, sm.routes(), qos::paper_catalogue(),
                                ac);
    (void)control::restore_world(
        b, seed, control::World{&fresh, nullptr, nullptr, nullptr});
  };
  const auto expect_refusal = [&](const std::vector<std::uint8_t>& b,
                                  qos::ConnectionId named) {
    try {
      restore(b);
      ADD_FAILURE() << "blob with connection id " << named << " restored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(" " + std::to_string(named)),
                std::string::npos)
          << e.what();
    }
  };

  // Re-framing alone changes nothing: the untouched payload restores.
  EXPECT_NO_THROW(restore(reframe(blob, next_id_at, u32_bytes(last + 1))));
  // The saved next id no longer lies above the largest restored id.
  expect_refusal(reframe(blob, next_id_at, u32_bytes(last)), last);
  // A record id of 0 (never minted).
  expect_refusal(reframe(blob, record_at, u32_bytes(0)), 0);
  // A record id at or above the saved next id.
  expect_refusal(reframe(blob, record_at, u32_bytes(last + 1)), last + 1);
  expect_refusal(reframe(blob, record_at, u32_bytes(last + 7)), last + 7);
  // A record id that repeats another record's.
  expect_refusal(reframe(blob, record_at, u32_bytes(last)), last);
}

TEST(Snapshot, RestoredLastIdRefusesRequestsBeforeReservingAnyHop) {
  // A saved next id of 2^32 - 1 restores (no record lies at or above it),
  // but no id is left to mint: request() and request_best_effort() throw
  // std::length_error before they reserve any hop of the path.
  const std::uint64_t seed = 47;
  const auto graph = make_small_fabric();
  const subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = seed;
  qos::AdmissionControl saved(graph, sm.routes(), qos::paper_catalogue(), ac);
  const auto blob = control::save_world(
      1, seed, control::World{&saved, nullptr, nullptr, nullptr});
  util::BinWriter state;
  saved.save_state(state);
  const auto payload = control::open_envelope(blob);
  const auto begin = std::search(payload.begin(), payload.end(),
                                 state.bytes().begin(), state.bytes().end());
  ASSERT_NE(begin, payload.end());
  // The saved next id is followed by the two u64 counters.
  const std::size_t next_id_at =
      static_cast<std::size_t>(begin - payload.begin()) +
      state.bytes().size() - 20;

  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);
  (void)control::restore_world(
      reframe(blob, next_id_at, u32_bytes(0xFFFFFFFFu)), seed,
      control::World{&admission, nullptr, nullptr, nullptr});

  const auto hosts = graph.hosts();
  qos::ConnectionRequest req;
  req.src_host = hosts.front();
  req.dst_host = hosts.back();
  req.sl = 7;
  req.max_distance = 64;
  req.wire_mbps = 1.0;
  EXPECT_THROW((void)admission.request(req), std::length_error);
  req.sl = 10;  // best effort: low-table weight
  EXPECT_THROW((void)admission.request_best_effort(req), std::length_error);

  std::string why;
  EXPECT_TRUE(admission.audit_full(&why)) << why;
  for (iba::NodeId node = 0; node < graph.node_count(); ++node) {
    const unsigned ports = graph.is_switch(node) ? graph.port_count(node) : 1;
    for (unsigned p = 0; p < ports; ++p) {
      const auto port = static_cast<iba::PortIndex>(p);
      if (!graph.peer(node, port)) continue;
      EXPECT_EQ(admission.port_manager(node, port).reserved_mbps(), 0.0)
          << "node " << node << " port " << p;
    }
  }
}

TEST(Snapshot, RestoreRejectsNonFiniteOrNegativeRates) {
  // A NaN rate passes every later bandwidth check (comparisons with NaN are
  // false), so a blob carrying a non-finite or negative request or hop rate
  // is refused, even under a valid CRC.
  const std::uint64_t seed = 53;
  const auto graph = make_small_fabric();
  const subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = seed;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);
  const auto hosts = graph.hosts();
  qos::ConnectionRequest req;
  req.src_host = hosts.front();
  req.dst_host = hosts.back();
  req.sl = 7;
  req.max_distance = 64;
  req.wire_mbps = 1.0;
  const auto id = admission.request(req);
  ASSERT_TRUE(id.has_value());
  const auto blob = control::save_world(
      1, seed, control::World{&admission, nullptr, nullptr, nullptr});

  // The record starts (id, src, dst); its rate follows the u8 SL and the u32
  // distance, and the first hop's rate follows the u64 hop count, the hop's
  // port (u32 node, u8 port), its u32 handle and its four u32 requirement
  // fields.
  const auto payload = control::open_envelope(blob);
  util::BinWriter record;
  record.put_u32(*id);
  record.put_u32(req.src_host);
  record.put_u32(req.dst_host);
  const auto rec = std::search(payload.begin(), payload.end(),
                               record.bytes().begin(), record.bytes().end());
  ASSERT_NE(rec, payload.end());
  const std::size_t rate_at = static_cast<std::size_t>(rec - payload.begin()) +
                              12 + 1 + 4;
  const std::size_t hop_rate_at = rate_at + 8 + 8 + 4 + 1 + 4 + 16;
  const auto double_bytes = [](double v) {
    util::BinWriter w;
    w.put_double(v);
    return w.bytes();
  };
  const auto one = double_bytes(1.0);
  for (const auto at : {rate_at, hop_rate_at})
    ASSERT_TRUE(std::equal(one.begin(), one.end(),
                           payload.begin() + static_cast<std::ptrdiff_t>(at)))
        << "offset " << at << " does not hold the 1 Mbps rate";

  const auto restore = [&](const std::vector<std::uint8_t>& b) {
    qos::AdmissionControl fresh(graph, sm.routes(), qos::paper_catalogue(),
                                ac);
    (void)control::restore_world(
        b, seed, control::World{&fresh, nullptr, nullptr, nullptr});
  };
  EXPECT_NO_THROW(restore(reframe(blob, hop_rate_at, one)));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -2.5}) {
    for (const auto at : {rate_at, hop_rate_at}) {
      try {
        restore(reframe(blob, at, double_bytes(bad)));
        ADD_FAILURE() << "rate " << bad << " at offset " << at << " restored";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ChurnEngine, RestoreGuardsRejectMismatches) {
  const std::uint64_t seed = 99;
  TestWorld a(seed, quick_churn(seed));
  std::vector<std::uint8_t> blob;
  a.engine->arm_snapshot(50'000, [&](iba::Cycle now) {
    blob = control::save_world(now, seed, a.refs());
  });
  a.engine->start();
  a.sm.configure_fabric(a.sim, a.admission);
  a.sim.run_until(150'000);
  ASSERT_FALSE(blob.empty());

  {
    // Wrong run seed.
    TestWorld b(seed, quick_churn(seed));
    EXPECT_THROW((void)control::restore_world(blob, seed + 1, b.refs()),
                 std::runtime_error);
  }
  {
    // Different engine config fingerprint.
    auto other = quick_churn(seed);
    other.arrivals_per_tick += 1;
    TestWorld b(seed, other);
    EXPECT_THROW((void)control::restore_world(blob, seed, b.refs()),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace ibarb
