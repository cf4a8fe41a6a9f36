// Differential test: TableManager against a straightforward reference model.
//
// The reference below spells the manager out the direct way — positions as
// ascending slot lists, the fill scan as scan_order + per-slot checks, a
// linear sharing scan, a sorting defragmenter and a low table re-rendered
// in full on every add_low_weight/remove_low_weight. The production manager
// reaches the same results with slot masks, buddy-start masks, a per-VL
// handle index and a low table rendered when it is read. Seeded random
// churn under every FillPolicy must leave both with identical Stats, RNG
// state and save_state bytes after every single step, and identical high
// and low tables whenever the production tables are read: every step, or
// every few steps so that one render covers a batch of low-weight changes.
// Some cases end with a phase of large best-effort rates, so that
// add_low_weight meets the bandwidth cap as well as the 64-entry limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arbtable/bit_reversal.hpp"
#include "arbtable/requirements.hpp"
#include "arbtable/table_manager.hpp"
#include "iba/vl_arbitration.hpp"
#include "util/binary.hpp"
#include "util/rng.hpp"

namespace ibarb::arbtable {
namespace {

class ReferenceManager {
 public:
  using Config = TableManager::Config;
  using Stats = TableManager::Stats;

  explicit ReferenceManager(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

  void configure_low_priority(
      std::span<const std::pair<iba::VirtualLane, std::uint8_t>> entries) {
    low_static_.assign(entries.begin(), entries.end());
    ASSERT_TRUE(render_low_table());
  }

  std::optional<SeqHandle> allocate(iba::VirtualLane vl,
                                    const Requirement& req, double mbps) {
    if (reserved_mbps_ + mbps > reservable_mbps() * (1.0 + 1e-12)) {
      ++stats_.reject_bandwidth;
      return std::nullopt;
    }
    for (SeqHandle h = 0; h < sequences_.size(); ++h) {
      Seq& seq = sequences_[h];
      if (!shareable(seq, vl, req)) continue;
      seq.weight_per_entry += req.weight_per_entry;
      seq.connections += 1;
      seq.reserved_mbps += mbps;
      write(seq);
      reserved_mbps_ += mbps;
      ++stats_.shares;
      return h;
    }
    if (cfg_.policy == FillPolicy::kScattered) {
      std::vector<std::uint8_t> picks;
      for (unsigned p = 0; p < iba::kArbTableEntries && picks.size() < req.entries;
           ++p)
        if (!table_.high()[p].active()) picks.push_back(static_cast<std::uint8_t>(p));
      if (picks.size() < req.entries) {
        ++stats_.reject_entries;
        return std::nullopt;
      }
      return create(vl, 0, std::move(picks), req, mbps);
    }
    if (const auto offset = scan(req.distance, rng_))
      return create(vl, req.distance, spaced(req.distance, *offset), req, mbps);
    ++stats_.reject_entries;
    return std::nullopt;
  }

  void release(SeqHandle handle, const Requirement& req, double mbps) {
    Seq& seq = sequences_[handle];
    seq.weight_per_entry -= req.weight_per_entry;
    seq.connections -= 1;
    seq.reserved_mbps -= mbps;
    reserved_mbps_ -= mbps;
    ++stats_.releases;
    if (seq.connections == 0) {
      for (const auto p : seq.positions) table_.high()[p] = {};
      seq.live = false;
      seq.positions.clear();
      free_handles_.push_back(handle);
      if (cfg_.defrag_on_release) {
        ++stats_.defrag_runs;
        stats_.defrag_moves += defragment();
      }
    } else {
      write(seq);
    }
  }

  bool add_low_weight(iba::VirtualLane vl, unsigned weight, double mbps) {
    if (reserved_mbps_ + mbps > reservable_mbps() * (1.0 + 1e-12)) {
      ++stats_.reject_bandwidth;
      return false;
    }
    low_dynamic_weight_[vl] += weight;
    if (!render_low_table()) {
      low_dynamic_weight_[vl] -= weight;
      ++stats_.reject_entries;
      return false;
    }
    reserved_mbps_ += mbps;
    low_reserved_mbps_ += mbps;
    return true;
  }

  void remove_low_weight(iba::VirtualLane vl, unsigned weight, double mbps) {
    low_dynamic_weight_[vl] -= weight;
    EXPECT_TRUE(render_low_table());
    reserved_mbps_ -= mbps;
    low_reserved_mbps_ -= mbps;
  }

  bool can_admit(iba::VirtualLane vl, const Requirement& req,
                 double mbps) const {
    if (reserved_mbps_ + mbps > reservable_mbps() * (1.0 + 1e-12))
      return false;
    for (const auto& seq : sequences_)
      if (shareable(seq, vl, req)) return true;
    if (cfg_.policy == FillPolicy::kScattered) {
      unsigned free = 0;
      for (const auto& e : table_.high())
        if (!e.active()) ++free;
      return free >= req.entries;
    }
    util::Xoshiro256 probe = rng_;
    return scan(req.distance, probe).has_value();
  }

  void save_state(util::BinWriter& w) const {
    w.put_u64(fingerprint());
    for (const auto s : rng_.state()) w.put_u64(s);
    w.put_u64(sequences_.size());
    for (const auto& seq : sequences_) {
      w.put_u8(seq.vl);
      w.put_u32(seq.distance);
      w.put_bytes(seq.positions);
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

  const iba::VlArbitrationTable& table() const { return table_; }
  const Stats& stats() const { return stats_; }
  std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }

 private:
  struct Seq {
    iba::VirtualLane vl = 0;
    unsigned distance = 0;
    std::vector<std::uint8_t> positions;
    unsigned weight_per_entry = 0;
    unsigned connections = 0;
    double reserved_mbps = 0.0;
    bool live = false;
  };

  double reservable_mbps() const {
    return cfg_.link_data_mbps * cfg_.reservable_fraction;
  }

  static bool shareable(const Seq& seq, iba::VirtualLane vl,
                        const Requirement& req) {
    if (!seq.live || seq.vl != vl) return false;
    const bool compatible = seq.distance != 0
                                ? seq.distance == req.distance
                                : seq.positions.size() == req.entries;
    return compatible &&
           seq.weight_per_entry + req.weight_per_entry <= iba::kMaxEntryWeight;
  }

  static std::vector<std::uint8_t> spaced(unsigned distance, unsigned offset) {
    std::vector<std::uint8_t> out;
    for (unsigned p = offset; p < iba::kArbTableEntries; p += distance)
      out.push_back(static_cast<std::uint8_t>(p));
    return out;
  }

  /// The inspection order of each policy, with kRandom's Fisher-Yates draw.
  std::vector<unsigned> order(unsigned distance, util::Xoshiro256& rng) const {
    std::vector<unsigned> out(distance);
    std::iota(out.begin(), out.end(), 0u);
    if (cfg_.policy == FillPolicy::kBitReversal) {
      for (unsigned j = 0; j < distance; ++j)
        out[j] = reverse_bits(j, log2_pow2(distance));
    } else if (cfg_.policy == FillPolicy::kRandom) {
      for (unsigned j = distance; j > 1; --j)
        std::swap(out[j - 1], out[rng.below(j)]);
    }
    return out;
  }

  std::optional<unsigned> scan(unsigned distance, util::Xoshiro256& rng) const {
    for (const unsigned j : order(distance, rng)) {
      bool free = true;
      for (unsigned p = j; p < iba::kArbTableEntries; p += distance)
        if (table_.high()[p].active()) free = false;
      if (free) return j;
    }
    return std::nullopt;
  }

  SeqHandle create(iba::VirtualLane vl, unsigned distance,
                   std::vector<std::uint8_t> positions, const Requirement& req,
                   double mbps) {
    SeqHandle h;
    if (!free_handles_.empty()) {
      h = free_handles_.back();
      free_handles_.pop_back();
    } else {
      h = static_cast<SeqHandle>(sequences_.size());
      sequences_.emplace_back();
    }
    Seq& seq = sequences_[h];
    seq = Seq{vl, distance, std::move(positions), req.weight_per_entry, 1,
              mbps, true};
    write(seq);
    reserved_mbps_ += mbps;
    ++stats_.allocations;
    return h;
  }

  void write(const Seq& seq) {
    for (const auto p : seq.positions)
      table_.high()[p] = iba::ArbTableEntry{
          seq.vl, static_cast<std::uint8_t>(seq.weight_per_entry)};
  }

  /// Sort live spaced sequences by size (descending) then buddy address,
  /// pack them left to right in buddy space, move the ones that changed.
  unsigned defragment() {
    std::vector<SeqHandle> live;
    for (SeqHandle h = 0; h < sequences_.size(); ++h) {
      if (!sequences_[h].live) continue;
      if (sequences_[h].distance == 0) return 0;
      live.push_back(h);
    }
    const auto buddy = [&](SeqHandle h) {
      const Seq& s = sequences_[h];
      return reverse_bits(s.positions[0], log2_pow2(s.distance));
    };
    std::sort(live.begin(), live.end(), [&](SeqHandle a, SeqHandle b) {
      const auto sa = sequences_[a].positions.size();
      const auto sb = sequences_[b].positions.size();
      if (sa != sb) return sa > sb;
      return buddy(a) < buddy(b);
    });
    std::vector<std::pair<SeqHandle, unsigned>> moving;  // handle, offset
    unsigned cursor = 0;
    for (const SeqHandle h : live) {
      const Seq& seq = sequences_[h];
      const auto size = static_cast<unsigned>(seq.positions.size());
      const unsigned offset =
          reverse_bits(cursor / size, log2_pow2(seq.distance));
      cursor += size;
      if (offset != seq.positions[0]) moving.emplace_back(h, offset);
    }
    for (const auto& [h, offset] : moving)
      for (const auto p : sequences_[h].positions)
        table_.high()[p] = {};
    for (const auto& [h, offset] : moving) {
      sequences_[h].positions = spaced(sequences_[h].distance, offset);
      write(sequences_[h]);
    }
    return static_cast<unsigned>(moving.size());
  }

  bool render_low_table() {
    iba::ArbTable fresh{};
    std::size_t slot = 0;
    for (const auto& [vl, weight] : low_static_) {
      if (slot >= fresh.size()) return false;
      fresh[slot++] = iba::ArbTableEntry{vl, weight};
    }
    for (unsigned vl = 0; vl < low_dynamic_weight_.size(); ++vl) {
      unsigned remaining = low_dynamic_weight_[vl];
      while (remaining > 0) {
        if (slot >= fresh.size()) return false;
        const auto chunk = static_cast<std::uint8_t>(
            std::min(remaining, iba::kMaxEntryWeight));
        fresh[slot++] =
            iba::ArbTableEntry{static_cast<iba::VirtualLane>(vl), chunk};
        remaining -= chunk;
      }
    }
    for (unsigned p = 0; p < fresh.size(); ++p)
      table_.low()[p] = fresh[p];
    return true;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = 0x1BA2B5EEDull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(std::bit_cast<std::uint64_t>(cfg_.link_data_mbps));
    mix(std::bit_cast<std::uint64_t>(cfg_.reservable_fraction));
    mix(static_cast<std::uint64_t>(cfg_.policy));
    mix(cfg_.defrag_on_release ? 1 : 0);
    mix(cfg_.seed);
    return h;
  }

  Config cfg_;
  util::Xoshiro256 rng_;
  iba::VlArbitrationTable table_;
  std::vector<std::pair<iba::VirtualLane, std::uint8_t>> low_static_;
  std::array<unsigned, iba::kMaxVirtualLanes> low_dynamic_weight_{};
  std::vector<Seq> sequences_;
  std::vector<SeqHandle> free_handles_;
  double reserved_mbps_ = 0.0;
  double low_reserved_mbps_ = 0.0;
  Stats stats_;
};

std::vector<std::uint8_t> state_bytes(const auto& manager) {
  util::BinWriter w;
  manager.save_state(w);
  return w.bytes();
}

/// The RNG words follow the 8-byte config fingerprint in save_state.
std::array<std::uint64_t, 4> saved_rng_state(
    const std::vector<std::uint8_t>& bytes) {
  util::BinReader r(bytes);
  (void)r.get_u64();
  std::array<std::uint64_t, 4> s;
  for (auto& word : s) word = r.get_u64();
  return s;
}

void expect_same_stats(const TableManager::Stats& a,
                       const TableManager::Stats& b, int step) {
  ASSERT_EQ(a.allocations, b.allocations) << "step " << step;
  ASSERT_EQ(a.shares, b.shares) << "step " << step;
  ASSERT_EQ(a.reject_bandwidth, b.reject_bandwidth) << "step " << step;
  ASSERT_EQ(a.reject_entries, b.reject_entries) << "step " << step;
  ASSERT_EQ(a.releases, b.releases) << "step " << step;
  ASSERT_EQ(a.defrag_runs, b.defrag_runs) << "step " << step;
  ASSERT_EQ(a.defrag_moves, b.defrag_moves) << "step " << step;
}

struct DiffCase {
  FillPolicy policy;
  bool defrag;
  std::uint64_t seed;
  /// The production tables are read (and audited) every this many steps.
  int read_every = 1;
  /// Steps 2000 on add best-effort weight at 100-299 Mbps.
  bool large_low_rates = false;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << to_string(c.policy) << (c.defrag ? " defrag" : " no-defrag")
      << " seed " << c.seed;
  if (c.read_every != 1) *os << " read every " << c.read_every;
  if (c.large_low_rates) *os << " large low rates";
}

class TableManagerReference : public ::testing::TestWithParam<DiffCase> {};

TEST_P(TableManagerReference, RandomChurnMatchesReferenceEveryStep) {
  const auto [policy, defrag, seed, read_every, large_low_rates] = GetParam();
  TableManager::Config cfg;
  cfg.link_data_mbps = 2000.0;
  cfg.reservable_fraction = 0.8;
  cfg.policy = policy;
  cfg.defrag_on_release = defrag;
  cfg.seed = seed;
  TableManager fast(cfg);
  ReferenceManager ref(cfg);
  const std::vector<std::pair<iba::VirtualLane, std::uint8_t>> low{
      {10, 128}, {11, 64}, {12, 16}};
  fast.configure_low_priority(low);
  ref.configure_low_priority(low);

  struct High {
    SeqHandle handle;
    iba::VirtualLane vl;
    Requirement req;
    double mbps;
  };
  struct Low {
    iba::VirtualLane vl;
    unsigned weight;
    double mbps;
  };
  std::vector<High> high;
  std::vector<Low> lows;
  util::Xoshiro256 rng(seed * 7919 + 1);
  constexpr unsigned kDistances[] = {1, 2, 4, 8, 16, 32, 64};
  std::uint64_t low_reject_entries = 0;
  std::uint64_t low_reject_bandwidth = 0;
  const auto expect_same_tables = [&](const TableManager& m, int step) {
    ASSERT_EQ(m.table().high(), ref.table().high()) << "step " << step;
    ASSERT_EQ(m.table().low(), ref.table().low()) << "step " << step;
    ASSERT_EQ(m.table().total_weight_low(), ref.table().total_weight_low())
        << "step " << step;
  };

  for (int step = 0; step < 3000; ++step) {
    const auto roll = rng.below(100);
    if (roll < 30 && !high.empty()) {
      const auto idx = rng.below(high.size());
      const High c = high[idx];
      high.erase(high.begin() + static_cast<std::ptrdiff_t>(idx));
      fast.release(c.handle, c.req, c.mbps);
      ref.release(c.handle, c.req, c.mbps);
    } else if (roll < 40) {
      // The last third of a large-rate case adds little weight at large
      // rates, so after the 64-entry limit the bandwidth cap binds.
      const bool large = large_low_rates && step >= 2000;
      const auto vl = static_cast<iba::VirtualLane>(rng.below(15));
      const auto weight =
          1 + static_cast<unsigned>(rng.below(large ? 60 : 700));
      const double mbps = large ? 100.0 + static_cast<double>(rng.below(200))
                                : 0.5 + static_cast<double>(rng.below(8));
      const auto before = fast.stats();
      const bool a = fast.add_low_weight(vl, weight, mbps);
      ASSERT_EQ(a, ref.add_low_weight(vl, weight, mbps)) << "step " << step;
      if (a) lows.push_back({vl, weight, mbps});
      low_reject_entries += fast.stats().reject_entries - before.reject_entries;
      low_reject_bandwidth +=
          fast.stats().reject_bandwidth - before.reject_bandwidth;
    } else if (roll < 48 && !lows.empty()) {
      const auto idx = rng.below(lows.size());
      const Low l = lows[idx];
      lows.erase(lows.begin() + static_cast<std::ptrdiff_t>(idx));
      fast.remove_low_weight(l.vl, l.weight, l.mbps);
      ref.remove_low_weight(l.vl, l.weight, l.mbps);
    } else {
      const auto vl = static_cast<iba::VirtualLane>(rng.below(6));
      const unsigned dist = kDistances[rng.below(std::size(kDistances))];
      const double mbps = 0.5 + static_cast<double>(rng.below(30));
      const auto req = compute_requirement(mbps, cfg.link_data_mbps, dist);
      ASSERT_TRUE(req.has_value());
      ASSERT_EQ(fast.can_admit(vl, *req, mbps), ref.can_admit(vl, *req, mbps))
          << "step " << step;
      const auto got = fast.allocate(vl, *req, mbps);
      ASSERT_EQ(got, ref.allocate(vl, *req, mbps)) << "step " << step;
      if (got) high.push_back({*got, vl, *req, mbps});
    }

    expect_same_stats(fast.stats(), ref.stats(), step);
    const auto bytes = state_bytes(fast);
    ASSERT_EQ(saved_rng_state(bytes), ref.rng_state()) << "step " << step;
    ASSERT_EQ(bytes, state_bytes(ref)) << "step " << step;
    if (step % 400 == 399) {
      // A restored manager renders the same tables on its first read.
      TableManager restored(cfg);
      restored.configure_low_priority(low);
      util::BinReader r(bytes);
      restored.load_state(r);
      ASSERT_NO_FATAL_FAILURE(expect_same_tables(restored, step));
    }
    // check_invariants reads the tables too, so it keeps the read cadence.
    if (step % read_every != 0) continue;
    ASSERT_NO_FATAL_FAILURE(expect_same_tables(fast, step));
    std::string why;
    ASSERT_TRUE(fast.check_invariants(&why)) << "step " << step << ": " << why;
  }
  ASSERT_NO_FATAL_FAILURE(expect_same_tables(fast, 3000));
  // The churn must have exercised what it is meant to compare.
  EXPECT_GT(fast.stats().allocations, 100u);
  EXPECT_GT(fast.stats().shares, 100u);
  EXPECT_GT(fast.stats().reject_entries, 0u);
  EXPECT_GT(low_reject_entries, 0u) << "the 64-entry low-table limit is hit";
  if (large_low_rates) {
    EXPECT_GT(low_reject_bandwidth, 0u) << "the bandwidth cap is hit";
  }
  if (defrag && policy != FillPolicy::kScattered) {
    EXPECT_GT(fast.stats().defrag_moves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TableManagerReference,
    ::testing::Values(DiffCase{FillPolicy::kBitReversal, true, 1},
                      DiffCase{FillPolicy::kBitReversal, true, 9001},
                      DiffCase{FillPolicy::kBitReversal, false, 2},
                      DiffCase{FillPolicy::kSequential, true, 3},
                      DiffCase{FillPolicy::kSequential, false, 4},
                      DiffCase{FillPolicy::kRandom, true, 5},
                      DiffCase{FillPolicy::kRandom, false, 6},
                      DiffCase{FillPolicy::kScattered, false, 7},
                      DiffCase{FillPolicy::kScattered, true, 8},
                      DiffCase{FillPolicy::kBitReversal, true, 15, 7, true},
                      DiffCase{FillPolicy::kSequential, false, 12, 3, true},
                      DiffCase{FillPolicy::kRandom, true, 13, 5, true},
                      DiffCase{FillPolicy::kScattered, false, 16, 4, true}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      std::string name = to_string(info.param.policy);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      name += (info.param.defrag ? "_defrag_" : "_nodefrag_") +
              std::to_string(info.param.seed);
      if (info.param.read_every != 1)
        name += "_read" + std::to_string(info.param.read_every);
      if (info.param.large_low_rates) name += "_largelow";
      return name;
    });

}  // namespace
}  // namespace ibarb::arbtable
