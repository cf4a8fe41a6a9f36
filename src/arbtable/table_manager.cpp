#include "arbtable/table_manager.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "arbtable/defrag.hpp"

namespace ibarb::arbtable {

TableManager::TableManager(Config cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  assert(cfg_.link_data_mbps > 0.0);
  assert(cfg_.reservable_fraction > 0.0 && cfg_.reservable_fraction <= 1.0);
}

namespace {

/// Low-table entries a dynamic weight spreads over (chunks of up to 255).
unsigned low_chunks(unsigned weight) noexcept {
  return weight / iba::kMaxEntryWeight +
         (weight % iba::kMaxEntryWeight != 0 ? 1 : 0);
}

/// Low-table entries `low_static` plus the per-VL `weights` need.
unsigned count_low_entries(
    std::span<const std::pair<iba::VirtualLane, std::uint8_t>> low_static,
    std::span<const unsigned> weights) noexcept {
  auto n = static_cast<unsigned>(low_static.size());
  for (const auto weight : weights) n += low_chunks(weight);
  return n;
}

}  // namespace

void TableManager::configure_low_priority(
    std::span<const std::pair<iba::VirtualLane, std::uint8_t>> entries) {
  low_static_.assign(entries.begin(), entries.end());
  low_entries_ = count_low_entries(low_static_, low_dynamic_weight_);
  assert(low_entries_ <= iba::kArbTableEntries &&
         "static low-priority config must fit the table");
  dirty_ = true;
}

void TableManager::render_tables() const noexcept {
  auto& high = table_.high();
  high = {};
  for (const auto& seq : sequences_) {
    if (!seq.live) continue;
    assert(seq.weight_per_entry <= iba::kMaxEntryWeight);
    const iba::ArbTableEntry entry{
        seq.vl, static_cast<std::uint8_t>(seq.weight_per_entry)};
    for (const auto p : seq.positions()) high[p] = entry;
  }
  auto& low = table_.low();
  low = {};
  unsigned slot = 0;
  const auto put = [&](iba::ArbTableEntry e) { low[slot++] = e; };
  for (const auto& [vl, weight] : low_static_) put({vl, weight});
  for (unsigned vl = 0; vl < low_dynamic_weight_.size(); ++vl) {
    for (unsigned remaining = low_dynamic_weight_[vl]; remaining > 0;) {
      const unsigned chunk = std::min(remaining, iba::kMaxEntryWeight);
      put({static_cast<iba::VirtualLane>(vl),
           static_cast<std::uint8_t>(chunk)});
      remaining -= chunk;
    }
  }
  dirty_ = false;
}

void TableManager::index_sequence(SeqHandle handle) {
  const Sequence& seq = sequences_[handle];
  occupied_ |= seq.slots;
  vl_handles_[seq.vl] |= std::uint64_t{1} << handle;
  if (seq.distance != 0) {
    const unsigned start = kReverse6[std::countr_zero(seq.slots)];
    starts_[std::countr_zero(seq.distance)] |= std::uint64_t{1} << start;
    owner_[start] = handle;
  }
}

void TableManager::unindex_sequence(SeqHandle handle) {
  const Sequence& seq = sequences_[handle];
  occupied_ &= ~seq.slots;
  vl_handles_[seq.vl] &= ~(std::uint64_t{1} << handle);
  if (seq.distance != 0) {
    const unsigned start = kReverse6[std::countr_zero(seq.slots)];
    starts_[std::countr_zero(seq.distance)] &= ~(std::uint64_t{1} << start);
  }
}

std::optional<SeqHandle> TableManager::find_share(
    iba::VirtualLane vl, const Requirement& req) const {
  // Ascending handle order: the lowest compatible live handle wins.
  for (std::uint64_t live = vl_handles_[vl]; live != 0; live &= live - 1) {
    const auto h = static_cast<SeqHandle>(std::countr_zero(live));
    const Sequence& seq = sequences_[h];
    // Spaced sequences share per distance class; scattered (baseline)
    // sequences share per entry count.
    const bool compatible =
        seq.distance != 0 ? seq.distance == req.distance
                          : seq.positions().size() == req.entries;
    if (compatible &&
        seq.weight_per_entry + req.weight_per_entry <= iba::kMaxEntryWeight)
      return h;
  }
  return std::nullopt;
}

SeqHandle TableManager::create_sequence(iba::VirtualLane vl, unsigned distance,
                                        std::uint64_t slots,
                                        const Requirement& req, double mbps) {
  SeqHandle h;
  if (!free_handles_.empty()) {
    h = free_handles_.back();
    free_handles_.pop_back();
  } else {
    h = static_cast<SeqHandle>(sequences_.size());
    sequences_.emplace_back();
  }
  assert(h < iba::kArbTableEntries && "a live sequence holds >= 1 slot");
  Sequence& seq = sequences_[h];
  seq.vl = vl;
  seq.distance = distance;
  seq.slots = slots;
  seq.weight_per_entry = req.weight_per_entry;
  seq.connections = 1;
  seq.reserved_mbps = mbps;
  seq.live = true;
  index_sequence(h);
  dirty_ = true;
  reserved_mbps_ += mbps;
  ++stats_.allocations;
  return h;
}

void TableManager::erase_sequence(SeqHandle handle) {
  Sequence& seq = sequences_[handle];
  unindex_sequence(handle);
  seq.live = false;
  seq.slots = 0;
}

std::optional<SeqHandle> TableManager::allocate(iba::VirtualLane vl,
                                                const Requirement& req,
                                                double mbps) {
  assert(vl < iba::kManagementVl);
  assert(req.entries > 0 && req.weight_per_entry > 0);
  if (reserved_mbps_ + mbps > reservable_mbps() * (1.0 + 1e-12)) {
    ++stats_.reject_bandwidth;
    return std::nullopt;
  }
  if (const auto shared = find_share(vl, req)) {
    Sequence& seq = sequences_[*shared];
    seq.weight_per_entry += req.weight_per_entry;
    seq.connections += 1;
    seq.reserved_mbps += mbps;
    dirty_ = true;
    reserved_mbps_ += mbps;
    ++stats_.shares;
    return shared;
  }

  if (cfg_.policy == FillPolicy::kScattered) {
    if (const auto picks = find_scattered(occupied_, req.entries))
      return create_sequence(vl, /*distance=*/0, *picks, req, mbps);
    ++stats_.reject_entries;
    return std::nullopt;
  }

  if (const auto set =
          find_free_set(occupied_, req.distance, cfg_.policy, &rng_)) {
    return create_sequence(vl, set->distance, set->mask(), req, mbps);
  }
  ++stats_.reject_entries;
  return std::nullopt;
}

void TableManager::release(SeqHandle handle, const Requirement& req,
                           double mbps) {
  assert(handle < sequences_.size());
  Sequence& seq = sequences_[handle];
  assert(seq.live && seq.connections > 0);
  assert(seq.weight_per_entry >= req.weight_per_entry);
  seq.weight_per_entry -= req.weight_per_entry;
  seq.connections -= 1;
  seq.reserved_mbps -= mbps;
  reserved_mbps_ -= mbps;
  ++stats_.releases;
  dirty_ = true;

  if (seq.connections == 0) {
    assert(seq.weight_per_entry == 0);
    erase_sequence(handle);
    free_handles_.push_back(handle);
    if (cfg_.defrag_on_release) defragment();
  }
}

bool TableManager::add_low_weight(iba::VirtualLane vl, unsigned weight,
                                  double mbps) {
  if (reserved_mbps_ + mbps > reservable_mbps() * (1.0 + 1e-12)) {
    ++stats_.reject_bandwidth;
    return false;
  }
  unsigned& vl_weight = low_dynamic_weight_[vl];
  const unsigned entries =
      low_entries_ - low_chunks(vl_weight) + low_chunks(vl_weight + weight);
  if (entries > iba::kArbTableEntries) {
    ++stats_.reject_entries;
    return false;
  }
  vl_weight += weight;
  low_entries_ = entries;
  dirty_ = true;
  reserved_mbps_ += mbps;
  low_reserved_mbps_ += mbps;
  return true;
}

void TableManager::remove_low_weight(iba::VirtualLane vl, unsigned weight,
                                     double mbps) {
  unsigned& vl_weight = low_dynamic_weight_[vl];
  assert(vl_weight >= weight);
  low_entries_ -= low_chunks(vl_weight) - low_chunks(vl_weight - weight);
  vl_weight -= weight;
  dirty_ = true;
  reserved_mbps_ -= mbps;
  low_reserved_mbps_ -= mbps;
}

unsigned TableManager::free_entries() const noexcept {
  return iba::kArbTableEntries -
         static_cast<unsigned>(std::popcount(occupied_));
}

unsigned TableManager::live_sequences() const noexcept {
  unsigned n = 0;
  for (const auto handles : vl_handles_)
    n += static_cast<unsigned>(std::popcount(handles));
  return n;
}

void TableManager::defragment() {
  ++stats_.defrag_runs;
  const unsigned moves = defragment_sequences(*this);
  stats_.defrag_moves += moves;
  if (moves != 0) dirty_ = true;
}

bool TableManager::can_admit(iba::VirtualLane vl, const Requirement& req,
                             double mbps) const {
  if (reserved_mbps_ + mbps > reservable_mbps() * (1.0 + 1e-12)) return false;
  if (find_share(vl, req)) return true;
  if (cfg_.policy == FillPolicy::kScattered)
    return find_scattered(occupied_, req.entries).has_value();
  // Probe the exact scan allocate() would run, on a copy of the RNG so the
  // dry-run never perturbs the stream (only kRandom consults it).
  util::Xoshiro256 probe = rng_;
  return find_free_set(occupied_, req.distance, cfg_.policy, &probe)
      .has_value();
}

bool TableManager::audit_free_set_optimality(std::string* why) const {
  if (cfg_.policy != FillPolicy::kBitReversal || !cfg_.defrag_on_release)
    return true;
  // Audits the rendered table entries, not the manager's own masks.
  const std::uint64_t occupied = occupancy_mask(table().high());
  const unsigned free =
      iba::kArbTableEntries - static_cast<unsigned>(std::popcount(occupied));
  for (unsigned d = 1; d <= kMaxDistance; d *= 2) {
    const bool found = find_free_set(occupied, d, cfg_.policy).has_value();
    const bool theorem = free >= iba::kArbTableEntries / d;
    if (found != theorem) {
      if (why != nullptr)
        *why = "Theorem-1 violation at distance " + std::to_string(d) + ": " +
               std::to_string(free) + " entries free but find_free_set " +
               (found ? "succeeded below the bound" : "failed above the bound");
      return false;
    }
  }
  return true;
}

namespace {

/// Guards load_state against a snapshot taken under a different manager
/// configuration (which would silently corrupt bandwidth accounting).
std::uint64_t config_fingerprint(const TableManager::Config& cfg) {
  std::uint64_t h = 0x1BA2B5EEDull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(std::bit_cast<std::uint64_t>(cfg.link_data_mbps));
  mix(std::bit_cast<std::uint64_t>(cfg.reservable_fraction));
  mix(static_cast<std::uint64_t>(cfg.policy));
  mix(cfg.defrag_on_release ? 1 : 0);
  mix(cfg.seed);
  return h;
}

}  // namespace

void TableManager::save_state(util::BinWriter& w) const {
  w.put_u64(config_fingerprint(cfg_));
  for (const auto s : rng_.state()) w.put_u64(s);
  w.put_u64(sequences_.size());
  for (const auto& seq : sequences_) {
    w.put_u8(seq.vl);
    w.put_u32(seq.distance);
    std::array<std::uint8_t, iba::kArbTableEntries> positions;
    std::size_t n = 0;
    for (const auto p : seq.positions())
      positions[n++] = static_cast<std::uint8_t>(p);
    w.put_bytes(std::span(positions.data(), n));
    w.put_u32(seq.weight_per_entry);
    w.put_u32(seq.connections);
    w.put_double(seq.reserved_mbps);
    w.put_bool(seq.live);
  }
  w.put_u64(free_handles_.size());
  for (const auto h : free_handles_) w.put_u32(h);
  w.put_u64(low_dynamic_weight_.size());
  for (const auto lw : low_dynamic_weight_) w.put_u32(lw);
  w.put_double(reserved_mbps_);
  w.put_double(low_reserved_mbps_);
  w.put_u64(stats_.allocations);
  w.put_u64(stats_.shares);
  w.put_u64(stats_.reject_bandwidth);
  w.put_u64(stats_.reject_entries);
  w.put_u64(stats_.releases);
  w.put_u64(stats_.defrag_runs);
  w.put_u64(stats_.defrag_moves);
}

void TableManager::load_state(util::BinReader& r) {
  if (r.get_u64() != config_fingerprint(cfg_))
    throw std::runtime_error(
        "snapshot was taken under a different TableManager config");
  std::array<std::uint64_t, 4> rng_state;
  for (auto& s : rng_state) s = r.get_u64();
  rng_.set_state(rng_state);

  const auto malformed = [](const char* what) {
    return std::runtime_error(std::string("malformed snapshot: ") + what);
  };
  const auto count = r.get_length();
  // Every live sequence holds a slot and handles are minted only when none
  // is free, so a manager never has more handles than table slots.
  if (count > iba::kArbTableEntries) throw malformed("too many sequences");
  sequences_.assign(count, Sequence{});
  for (auto& seq : sequences_) {
    seq.vl = r.get_u8();
    if (seq.vl >= iba::kMaxVirtualLanes) throw malformed("VL out of range");
    seq.distance = r.get_u32();
    int last = -1;
    for (const auto p : r.get_bytes()) {
      if (p >= iba::kArbTableEntries || p <= last)
        throw malformed("positions out of range or not ascending");
      seq.slots |= std::uint64_t{1} << p;
      last = p;
    }
    seq.weight_per_entry = r.get_u32();
    seq.connections = r.get_u32();
    seq.reserved_mbps = r.get_double();
    seq.live = r.get_bool();
    if (!seq.live) continue;
    // The indexes below key on these; check_invariants audits the rest.
    if (seq.slots == 0) throw malformed("live sequence without slots");
    if ((seq.distance == 0) != (cfg_.policy == FillPolicy::kScattered))
      throw malformed("sequence kind does not match the fill policy");
    if (seq.distance != 0 &&
        (!is_pow2(seq.distance) || seq.distance > kMaxDistance))
      throw malformed("sequence distance not a valid power of two");
  }
  free_handles_.resize(r.get_length());
  for (auto& h : free_handles_) {
    h = r.get_u32();
    if (h >= sequences_.size() || sequences_[h].live)
      throw malformed("free handle out of range or live");
  }
  if (r.get_u64() != low_dynamic_weight_.size())
    throw std::runtime_error("snapshot low-table weight count mismatch");
  std::array<unsigned, iba::kMaxVirtualLanes> low_weight;
  for (auto& lw : low_weight) lw = r.get_u32();
  const unsigned low_entries = count_low_entries(low_static_, low_weight);
  if (low_entries > iba::kArbTableEntries)
    throw std::runtime_error("restored low table does not fit");
  low_dynamic_weight_ = low_weight;
  low_entries_ = low_entries;
  reserved_mbps_ = r.get_double();
  low_reserved_mbps_ = r.get_double();
  stats_.allocations = r.get_u64();
  stats_.shares = r.get_u64();
  stats_.reject_bandwidth = r.get_u64();
  stats_.reject_entries = r.get_u64();
  stats_.releases = r.get_u64();
  stats_.defrag_runs = r.get_u64();
  stats_.defrag_moves = r.get_u64();

  // Rebuild the masks from the restored bookkeeping; both tables are
  // re-rendered from it on their next read. check_invariants() (run by the
  // restore auditor) proves the rebuild matches the saved world.
  occupied_ = 0;
  starts_ = {};
  vl_handles_ = {};
  for (SeqHandle h = 0; h < sequences_.size(); ++h)
    if (sequences_[h].live) index_sequence(h);
  dirty_ = true;
}

bool TableManager::check_invariants(std::string* why) const {
  const auto fail = [&](std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  };

  iba::ArbTable expected{};
  std::uint64_t used = 0;
  for (const auto& seq : sequences_) {
    if (!seq.live) continue;
    if (seq.connections == 0) return fail("live sequence with 0 connections");
    if (seq.weight_per_entry == 0 ||
        seq.weight_per_entry > iba::kMaxEntryWeight)
      return fail("sequence weight out of range");
    if (seq.distance != 0) {
      if (!is_pow2(seq.distance) || seq.distance > kMaxDistance)
        return fail("sequence distance not a valid power of two");
      if (seq.positions().size() != iba::kArbTableEntries / seq.distance)
        return fail("sequence entry count mismatch");
      const auto offset =
          static_cast<unsigned>(std::countr_zero(seq.slots));
      if (offset >= seq.distance ||
          seq.slots != EntrySet{seq.distance, offset}.mask())
        return fail("sequence positions not equally spaced");
    }
    if ((used & seq.slots) != 0) return fail("overlapping sequences");
    used |= seq.slots;
    for (const auto p : seq.positions())
      expected[p] = iba::ArbTableEntry{
          seq.vl, static_cast<std::uint8_t>(seq.weight_per_entry)};
  }
  const auto& high = table().high();
  for (unsigned p = 0; p < iba::kArbTableEntries; ++p)
    if (!(expected[p] == high[p]))
      return fail("table weight does not match sequence bookkeeping at slot " +
                  std::to_string(p));

  std::array<std::uint64_t, kDistanceClasses> starts{};
  std::array<std::uint64_t, iba::kMaxVirtualLanes> vl_handles{};
  for (SeqHandle h = 0; h < sequences_.size(); ++h) {
    const Sequence& seq = sequences_[h];
    if (!seq.live) continue;
    vl_handles[seq.vl] |= std::uint64_t{1} << h;
    if (seq.distance == 0) continue;
    const unsigned start = kReverse6[std::countr_zero(seq.slots)];
    starts[std::countr_zero(seq.distance)] |= std::uint64_t{1} << start;
    if (owner_[start] != h) return fail("buddy-start owner index drift");
  }
  if (used != occupied_) return fail("occupancy mask drift");
  if (starts != starts_) return fail("buddy-start mask drift");
  if (vl_handles != vl_handles_) return fail("per-VL handle index drift");

  if (low_entries_ != count_low_entries(low_static_, low_dynamic_weight_))
    return fail("low-table entry count drift");
  if (low_entries_ > iba::kArbTableEntries)
    return fail("low table needs more than 64 entries");
  // The rendered low table: the static entries, then each VL's dynamic
  // weight in ascending VL order as full 255 chunks plus a remainder, then
  // empty slots.
  const auto& low = table().low();
  unsigned slot = 0;
  const auto expect = [&](iba::VirtualLane vl, unsigned weight) {
    const bool ok = low[slot] == iba::ArbTableEntry{
                                     vl, static_cast<std::uint8_t>(weight)};
    ++slot;
    return ok;
  };
  for (const auto& [vl, weight] : low_static_)
    if (!expect(vl, weight))
      return fail("low table static entry mismatch at slot " +
                  std::to_string(slot - 1));
  for (unsigned vl = 0; vl < low_dynamic_weight_.size(); ++vl) {
    const unsigned weight = low_dynamic_weight_[vl];
    for (unsigned c = 0; c < weight / iba::kMaxEntryWeight; ++c)
      if (!expect(static_cast<iba::VirtualLane>(vl), iba::kMaxEntryWeight))
        return fail("low table dynamic entry mismatch at slot " +
                    std::to_string(slot - 1));
    if (weight % iba::kMaxEntryWeight != 0 &&
        !expect(static_cast<iba::VirtualLane>(vl),
                weight % iba::kMaxEntryWeight))
      return fail("low table dynamic entry mismatch at slot " +
                  std::to_string(slot - 1));
  }
  for (; slot < iba::kArbTableEntries; ++slot)
    if (!(low[slot] == iba::ArbTableEntry{}))
      return fail("low table slot " + std::to_string(slot) +
                  " set beyond the rendered entries");

  double sum_mbps = low_reserved_mbps_;
  for (const auto& seq : sequences_)
    if (seq.live) sum_mbps += seq.reserved_mbps;
  // Negated comparisons, so that a NaN anywhere fails them.
  if (!(std::abs(sum_mbps - reserved_mbps_) <= 1e-6))
    return fail("reserved bandwidth accounting drift");
  if (!(reserved_mbps_ <= reservable_mbps() * (1.0 + 1e-9)))
    return fail("reserved bandwidth exceeds the reservable cap");
  return true;
}

}  // namespace ibarb::arbtable
