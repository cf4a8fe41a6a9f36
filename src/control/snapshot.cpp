#include "control/snapshot.hpp"

#include <stdexcept>
#include <string>

#include "iba/crc.hpp"

namespace ibarb::control {

namespace {

void save_payload(util::BinWriter& w, iba::Cycle now, std::uint64_t run_seed,
                  const World& world) {
  w.put_u64(now);
  w.put_u64(run_seed);
  w.put_bool(world.admission != nullptr);
  if (world.admission != nullptr) world.admission->save_state(w);
  w.put_bool(world.coordinator != nullptr);
  if (world.coordinator != nullptr) {
    const auto& tracked = world.coordinator->export_tracked();
    w.put_u64(tracked.size());
    for (const auto& t : tracked) {
      w.put_u32(t.id);
      w.put_u32(t.flow);
      w.put_bool(t.guaranteed);
      w.put_bool(t.active);
      w.put_u32(t.request.src_host);
      w.put_u32(t.request.dst_host);
      w.put_u8(t.request.sl);
      w.put_u32(t.request.max_distance);
      w.put_double(t.request.wire_mbps);
    }
    const auto& rs = world.coordinator->stats();
    const std::uint64_t fields[] = {
        rs.resweeps, rs.failed_resweeps, rs.smps_sent, rs.rerouted,
        rs.suspended, rs.suspended_guaranteed, rs.suspended_best_effort,
        rs.restored, rs.shed_best_effort, rs.purged_in_flight,
        rs.guarantee_revocations, rs.last_recovery_latency,
        rs.max_recovery_latency};
    for (const auto f : fields) w.put_u64(f);
  }
  w.put_bool(world.injector != nullptr);
  if (world.injector != nullptr) {
    const auto& fs = world.injector->stats();
    const std::uint64_t fields[] = {
        fs.link_down_events, fs.link_up_events, fs.stuck_windows,
        fs.slow_windows, fs.overload_bursts, fs.corrupt_attempts,
        fs.crc_rejected, fs.crc_escaped, fs.dropped_packets,
        fs.flushed_packets};
    for (const auto f : fields) w.put_u64(f);
  }
  w.put_bool(world.engine != nullptr);
  if (world.engine != nullptr) world.engine->save_state(w);
}

/// Applies the payload minus the engine stream (the engine schedules its
/// next tick as a load side effect, so the bit-exact round-trip check
/// must run it last — see restore_world).
iba::Cycle load_payload(util::BinReader& r, std::uint64_t run_seed,
                        const World& world) {
  const auto snap_time = r.get_u64();
  if (r.get_u64() != run_seed)
    throw std::runtime_error("snapshot was taken under a different run seed");
  if (r.get_bool() != (world.admission != nullptr))
    throw std::runtime_error("snapshot/world admission shape mismatch");
  if (world.admission != nullptr) world.admission->load_state(r);
  if (r.get_bool() != (world.coordinator != nullptr))
    throw std::runtime_error("snapshot/world coordinator shape mismatch");
  if (world.coordinator != nullptr) {
    std::vector<faults::RecoveryCoordinator::Tracked> tracked(
        r.get_length());
    for (auto& t : tracked) {
      t.id = r.get_u32();
      t.flow = r.get_u32();
      t.guaranteed = r.get_bool();
      t.active = r.get_bool();
      t.request.src_host = r.get_u32();
      t.request.dst_host = r.get_u32();
      t.request.sl = r.get_u8();
      t.request.max_distance = r.get_u32();
      t.request.wire_mbps = r.get_double();
    }
    world.coordinator->import_tracked(tracked);
    faults::RecoveryStats rs;
    std::uint64_t* const fields[] = {
        &rs.resweeps, &rs.failed_resweeps, &rs.smps_sent, &rs.rerouted,
        &rs.suspended, &rs.suspended_guaranteed, &rs.suspended_best_effort,
        &rs.restored, &rs.shed_best_effort, &rs.purged_in_flight,
        &rs.guarantee_revocations, &rs.last_recovery_latency,
        &rs.max_recovery_latency};
    for (auto* f : fields) *f = r.get_u64();
    world.coordinator->restore_stats(rs);
  }
  if (r.get_bool() != (world.injector != nullptr))
    throw std::runtime_error("snapshot/world injector shape mismatch");
  if (world.injector != nullptr) {
    faults::FaultStats fs;
    std::uint64_t* const fields[] = {
        &fs.link_down_events, &fs.link_up_events, &fs.stuck_windows,
        &fs.slow_windows, &fs.overload_bursts, &fs.corrupt_attempts,
        &fs.crc_rejected, &fs.crc_escaped, &fs.dropped_packets,
        &fs.flushed_packets};
    for (auto* f : fields) *f = r.get_u64();
    world.injector->restore_stats(fs);
  }
  if (r.get_bool() != (world.engine != nullptr))
    throw std::runtime_error("snapshot/world engine shape mismatch");
  return snap_time;
}

}  // namespace

std::vector<std::uint8_t> seal_envelope(
    const std::vector<std::uint8_t>& payload) {
  util::BinWriter w;
  w.put_u64(kSnapshotMagic);
  w.put_u32(kSnapshotVersion);
  w.put_u64(payload.size());
  w.put_u32(iba::icrc(payload));
  auto blob = std::move(w).take();
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

std::vector<std::uint8_t> open_envelope(
    const std::vector<std::uint8_t>& blob) {
  util::BinReader r(blob);
  std::uint64_t magic = 0;
  try {
    magic = r.get_u64();
  } catch (const std::runtime_error&) {
    throw std::runtime_error("snapshot envelope truncated");
  }
  if (magic != kSnapshotMagic)
    throw std::runtime_error("not an ibarb snapshot (bad magic)");
  if (const auto version = r.get_u32(); version != kSnapshotVersion)
    throw std::runtime_error("unsupported snapshot version " +
                             std::to_string(version));
  const auto payload_len = r.get_u64();
  const auto crc = r.get_u32();
  if (payload_len != r.remaining())
    throw std::runtime_error("snapshot envelope length mismatch");
  std::vector<std::uint8_t> payload(blob.end() - static_cast<long>(payload_len),
                                    blob.end());
  if (iba::icrc(payload) != crc)
    throw std::runtime_error("snapshot CRC mismatch (damaged or truncated)");
  return payload;
}

std::vector<std::uint8_t> save_world(iba::Cycle now, std::uint64_t run_seed,
                                     const World& w) {
  util::BinWriter payload;
  save_payload(payload, now, run_seed, w);
  return seal_envelope(payload.bytes());
}

iba::Cycle peek_snapshot_time(const std::vector<std::uint8_t>& blob) {
  const auto payload = open_envelope(blob);
  util::BinReader r(payload);
  return r.get_u64();
}

iba::Cycle restore_world(const std::vector<std::uint8_t>& blob,
                         std::uint64_t run_seed, const World& w) {
  const auto payload = open_envelope(blob);
  util::BinReader r(payload);
  const auto snap_time = load_payload(r, run_seed, w);
  if (w.engine != nullptr) w.engine->load_state(r);
  if (!r.at_end())
    throw std::runtime_error("snapshot payload has trailing bytes");

  // Prove the restore exact: audit every table invariant plus Theorem-1
  // free-set optimality, then re-serialize and compare bit for bit.
  if (w.admission != nullptr) {
    std::string why;
    if (!w.admission->audit_full(&why))
      throw std::runtime_error("post-restore audit failed: " + why);
  }
  util::BinWriter again;
  save_payload(again, snap_time, run_seed, w);
  if (again.bytes() != payload)
    throw std::runtime_error(
        "post-restore re-serialization differs from the snapshot");
  return snap_time;
}

}  // namespace ibarb::control
