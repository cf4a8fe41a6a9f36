#include "arbtable/table_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ibarb::arbtable {
namespace {

TableManager::Config cfg(FillPolicy policy = FillPolicy::kBitReversal,
                         bool defrag = true) {
  TableManager::Config c;
  c.link_data_mbps = 2000.0;
  c.reservable_fraction = 0.8;
  c.policy = policy;
  c.defrag_on_release = defrag;
  c.seed = 11;
  return c;
}

Requirement req_for(double mbps, unsigned distance) {
  const auto r = compute_requirement(mbps, 2000.0, distance);
  EXPECT_TRUE(r.has_value());
  return *r;
}

TEST(TableManager, AllocateWritesSequenceIntoTable) {
  TableManager m(cfg());
  const auto r = req_for(10.0, 8);
  const auto h = m.allocate(3, r, 10.0);
  ASSERT_TRUE(h.has_value());
  const auto& table = m.table().high();
  unsigned active = 0;
  for (const auto& e : table)
    if (e.active()) {
      ++active;
      EXPECT_EQ(e.vl, 3);
      EXPECT_EQ(e.weight, r.weight_per_entry);
    }
  EXPECT_EQ(active, 8u);
  EXPECT_TRUE(m.check_invariants());
  EXPECT_DOUBLE_EQ(m.reserved_mbps(), 10.0);
}

TEST(TableManager, SameSlConnectionsShareSequence) {
  TableManager m(cfg());
  const auto r = req_for(4.0, 16);
  const auto a = m.allocate(2, r, 4.0);
  const auto b = m.allocate(2, r, 4.0);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);  // same sequence handle
  EXPECT_EQ(m.live_sequences(), 1u);
  EXPECT_EQ(m.stats().shares, 1u);
  EXPECT_EQ(m.sequence(*a).connections, 2u);
  EXPECT_EQ(m.sequence(*a).weight_per_entry, 2 * r.weight_per_entry);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, SharingStopsAtEntryWeightCap) {
  TableManager m(cfg());
  const auto r = req_for(30.0, 64);  // weight 245 on one entry
  const auto a = m.allocate(9, r, 30.0);
  ASSERT_TRUE(a.has_value());
  const auto b = m.allocate(9, r, 30.0);  // 245+245 > 255: new sequence
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(m.live_sequences(), 2u);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, DifferentVlsNeverShare) {
  TableManager m(cfg());
  const auto r = req_for(1.0, 32);
  const auto a = m.allocate(4, r, 1.0);
  const auto b = m.allocate(5, r, 1.0);
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(m.live_sequences(), 2u);
}

TEST(TableManager, BandwidthCapRejects) {
  TableManager m(cfg());
  const auto r = req_for(1000.0, 64);
  EXPECT_TRUE(m.allocate(0, r, 1000.0).has_value());
  // 1000 + 700 > 0.8 * 2000.
  const auto r2 = req_for(700.0, 64);
  EXPECT_FALSE(m.allocate(0, r2, 700.0).has_value());
  EXPECT_EQ(m.stats().reject_bandwidth, 1u);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, EntryExhaustionRejects) {
  TableManager m(cfg());
  // 64 distance-64 sequences on distinct VLs... only 15 data VLs; use the
  // same VL but saturate each entry's weight first so sharing cannot absorb.
  const auto r = req_for(30.0, 64);  // 245 per entry: no two share
  unsigned accepted = 0;
  for (int i = 0; i < 80; ++i)
    if (m.allocate(1, r, 0.1).has_value()) ++accepted;  // tiny mbps: cap easy
  EXPECT_EQ(accepted, 64u);
  EXPECT_GT(m.stats().reject_entries, 0u);
  EXPECT_EQ(m.free_entries(), 0u);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, ReleaseRestoresEverything) {
  TableManager m(cfg());
  const auto r = req_for(10.0, 8);
  const auto h = m.allocate(3, r, 10.0);
  ASSERT_TRUE(h.has_value());
  m.release(*h, r, 10.0);
  EXPECT_EQ(m.free_entries(), 64u);
  EXPECT_EQ(m.live_sequences(), 0u);
  EXPECT_DOUBLE_EQ(m.reserved_mbps(), 0.0);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, PartialReleaseKeepsSharedSequence) {
  TableManager m(cfg());
  const auto r = req_for(4.0, 16);
  const auto a = m.allocate(2, r, 4.0);
  const auto b = m.allocate(2, r, 4.0);
  ASSERT_TRUE(a && b);
  m.release(*a, r, 4.0);
  EXPECT_EQ(m.live_sequences(), 1u);
  EXPECT_EQ(m.sequence(*b).connections, 1u);
  EXPECT_EQ(m.sequence(*b).weight_per_entry, r.weight_per_entry);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, HandlesAreRecycled) {
  TableManager m(cfg());
  const auto r = req_for(30.0, 64);
  const auto a = m.allocate(1, r, 1.0);
  ASSERT_TRUE(a.has_value());
  m.release(*a, r, 1.0);
  const auto b = m.allocate(1, r, 1.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(TableManager, LowPriorityConfiguration) {
  TableManager m(cfg());
  const std::vector<std::pair<iba::VirtualLane, std::uint8_t>> low{
      {10, 128}, {11, 64}, {12, 16}};
  m.configure_low_priority(low);
  EXPECT_EQ(m.table().vl_weight_low(10), 128u);
  EXPECT_EQ(m.table().vl_weight_low(11), 64u);
  EXPECT_EQ(m.table().vl_weight_low(12), 16u);
  EXPECT_EQ(m.table().total_weight_low(), 208u);
}

TEST(TableManager, LowWeightAccumulatesAcrossEntries) {
  TableManager m(cfg());
  EXPECT_TRUE(m.add_low_weight(6, 200, 100.0));
  EXPECT_TRUE(m.add_low_weight(6, 100, 20.0));  // 300 spreads over 2 entries
  EXPECT_EQ(m.table().vl_weight_low(6), 300u);
  unsigned entries = 0;
  for (const auto& e : m.table().low())
    if (e.active()) {
      ++entries;
      EXPECT_LE(e.weight, iba::kMaxEntryWeight);
    }
  EXPECT_EQ(entries, 2u);
  m.remove_low_weight(6, 100, 20.0);
  EXPECT_EQ(m.table().vl_weight_low(6), 200u);
  EXPECT_DOUBLE_EQ(m.reserved_mbps(), 100.0);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, LowTableEntryExhaustionRejects) {
  TableManager m(cfg());
  // 64 entries of 255 fill the low table exactly.
  EXPECT_TRUE(m.add_low_weight(6, 64 * 255, 100.0));
  EXPECT_FALSE(m.add_low_weight(7, 1, 1.0));
  m.remove_low_weight(6, 64 * 255, 100.0);
  EXPECT_TRUE(m.add_low_weight(7, 1, 1.0));
  EXPECT_TRUE(m.check_invariants());
}

TEST(TableManager, LowWeightCountsAgainstBandwidthCap) {
  TableManager m(cfg());
  EXPECT_TRUE(m.add_low_weight(6, 10, 1500.0));
  const auto r = req_for(200.0, 64);
  EXPECT_FALSE(m.allocate(0, r, 200.0).has_value());  // 1500+200 > 1600
}

TEST(TableManager, ScatteredPolicyAllocatesAnyFreeSlots) {
  TableManager m(cfg(FillPolicy::kScattered, false));
  const auto r = req_for(10.0, 8);  // 8 entries
  const auto h = m.allocate(3, r, 10.0);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(m.sequence(*h).distance, 0u);
  EXPECT_EQ(m.sequence(*h).positions().size(), 8u);
  EXPECT_EQ(m.free_entries(), 56u);
  EXPECT_TRUE(m.check_invariants());
}

// Randomized churn property test: thousands of interleaved allocate /
// share / release / defrag steps against a shadow model that predicts the
// manager's exact behaviour — which handle an admission lands on, whether
// it shares or allocates fresh, which rejection counter a refusal hits —
// and revalidates the Theorem-1 free-set invariant plus the full stats
// accounting after every single step.
TEST(TableManagerProperty, RandomChurnPreservesInvariantsAndStats) {
  TableManager m(cfg());  // bit-reversal fill, defrag-on-release
  util::Xoshiro256 rng(20260808);

  struct LiveConn {
    SeqHandle handle = 0;
    iba::VirtualLane vl = 0;
    Requirement req;
    double mbps = 0.0;
  };
  std::vector<LiveConn> live;
  // Shadow of the manager's handle recycling: a LIFO free stack plus the
  // append cursor. Predicts the exact handle of every fresh sequence.
  std::vector<SeqHandle> shadow_free;
  SeqHandle shadow_next = 0;
  TableManager::Stats want{};

  constexpr unsigned kDistances[] = {1, 2, 4, 8, 16, 32, 64};
  for (int step = 0; step < 4000; ++step) {
    std::string why;
    if (!live.empty() && rng.below(10) < 4) {
      // --- Release a random live connection --------------------------------
      const auto idx = rng.below(live.size());
      const LiveConn c = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      m.release(c.handle, c.req, c.mbps);
      ++want.releases;
      const bool was_last =
          std::none_of(live.begin(), live.end(), [&](const LiveConn& o) {
            return o.handle == c.handle;
          });
      if (was_last) {
        // The sequence died: its handle is recycled and defrag runs.
        shadow_free.push_back(c.handle);
        ++want.defrag_runs;
      }
    } else {
      // --- Admit a connection ----------------------------------------------
      const auto vl = static_cast<iba::VirtualLane>(rng.below(6));
      const unsigned dist = kDistances[rng.below(std::size(kDistances))];
      const double mbps = 1.0 + static_cast<double>(rng.below(25));
      const auto req = compute_requirement(mbps, 2000.0, dist);
      ASSERT_TRUE(req.has_value()) << "step " << step;

      // Predict the outcome from the shadow model before touching state.
      const bool over_cap =
          m.reserved_mbps() + mbps > m.reservable_mbps() * (1.0 + 1e-12);
      std::optional<SeqHandle> predicted;
      bool predicted_share = false;
      if (!over_cap) {
        // try_share scans handles in ascending order.
        std::vector<SeqHandle> handles;
        for (const auto& o : live)
          if (std::find(handles.begin(), handles.end(), o.handle) ==
              handles.end())
            handles.push_back(o.handle);
        std::sort(handles.begin(), handles.end());
        for (const auto h : handles) {
          const auto& seq = m.sequence(h);
          if (seq.vl == vl && seq.distance == req->distance &&
              seq.weight_per_entry + req->weight_per_entry <=
                  iba::kMaxEntryWeight) {
            predicted = h;
            predicted_share = true;
            break;
          }
        }
        if (!predicted &&
            m.free_entries() >= iba::kArbTableEntries / req->distance)
          // Theorem 1: enough free entries guarantees a spaced free set.
          predicted = shadow_free.empty() ? shadow_next : shadow_free.back();
      }
      ASSERT_EQ(m.can_admit(vl, *req, mbps), predicted.has_value())
          << "step " << step << ": can_admit disagrees with the shadow model";

      const auto got = m.allocate(vl, *req, mbps);
      ASSERT_EQ(got, predicted) << "step " << step;
      if (got) {
        live.push_back({*got, vl, *req, mbps});
        if (predicted_share) {
          ++want.shares;
        } else {
          ++want.allocations;
          if (shadow_free.empty())
            ++shadow_next;
          else
            shadow_free.pop_back();
        }
      } else if (over_cap) {
        ++want.reject_bandwidth;
      } else {
        ++want.reject_entries;
      }
    }

    // --- Every step: invariants, Theorem 1, exact accounting ---------------
    ASSERT_TRUE(m.check_invariants(&why)) << "step " << step << ": " << why;
    ASSERT_TRUE(m.audit_free_set_optimality(&why))
        << "step " << step << ": " << why;
    const auto& s = m.stats();
    ASSERT_EQ(s.allocations, want.allocations) << "step " << step;
    ASSERT_EQ(s.shares, want.shares) << "step " << step;
    ASSERT_EQ(s.reject_bandwidth, want.reject_bandwidth) << "step " << step;
    ASSERT_EQ(s.reject_entries, want.reject_entries) << "step " << step;
    ASSERT_EQ(s.releases, want.releases) << "step " << step;
    ASSERT_EQ(s.defrag_runs, want.defrag_runs) << "step " << step;
    ASSERT_EQ(m.live_sequences(),
              static_cast<unsigned>([&] {
                std::vector<SeqHandle> h;
                for (const auto& o : live) h.push_back(o.handle);
                std::sort(h.begin(), h.end());
                return std::unique(h.begin(), h.end()) - h.begin();
              }()))
        << "step " << step;
  }
  // Drain everything: the table must return to pristine.
  while (!live.empty()) {
    const LiveConn c = live.back();
    live.pop_back();
    m.release(c.handle, c.req, c.mbps);
  }
  EXPECT_EQ(m.free_entries(), iba::kArbTableEntries);
  EXPECT_EQ(m.live_sequences(), 0u);
  EXPECT_DOUBLE_EQ(m.reserved_mbps(), 0.0);
  EXPECT_TRUE(m.check_invariants());
  EXPECT_TRUE(m.audit_free_set_optimality());
}

TEST(TableManager, InvariantCheckerCatchesCorruption) {
  TableManager m(cfg());
  const auto r = req_for(10.0, 8);
  ASSERT_TRUE(m.allocate(3, r, 10.0).has_value());
  // Corrupt the table behind the manager's back via const_cast (test only).
  auto& table = const_cast<iba::VlArbitrationTable&>(m.table());
  table.high()[0].weight = 0;
  std::string why;
  EXPECT_FALSE(m.check_invariants(&why));
  EXPECT_FALSE(why.empty());
}

TEST(LowTableAudit, CatchesAStaleOrCorruptRender) {
  TableManager::Config c;
  c.reservable_fraction = 1.0;
  TableManager m(c);
  m.configure_low_priority(
      std::vector<std::pair<iba::VirtualLane, std::uint8_t>>{{14, 32}});
  ASSERT_TRUE(m.add_low_weight(3, 300, 1.0));
  ASSERT_TRUE(m.add_low_weight(5, 10, 1.0));
  std::string why;
  ASSERT_TRUE(m.check_invariants(&why)) << why;

  // Corrupt the rendered table behind the manager's back (test only).
  auto& table = const_cast<iba::VlArbitrationTable&>(m.table());
  table.low()[2].weight = 44;  // VL 3's second chunk is 45
  EXPECT_FALSE(m.check_invariants(&why));
  EXPECT_NE(why.find("slot 2"), std::string::npos) << why;

  // The next change re-renders and repairs the table.
  m.remove_low_weight(5, 10, 1.0);
  EXPECT_TRUE(m.check_invariants(&why)) << why;
  table.low()[10] = {7, 1};  // beyond the three rendered entries
  EXPECT_FALSE(m.check_invariants(&why));
  EXPECT_NE(why.find("slot 10"), std::string::npos) << why;
}

TEST(HighTableAudit, CatchesAStaleOrCorruptRender) {
  TableManager m(cfg());
  const auto r8 = req_for(10.0, 8);
  const auto r16 = req_for(4.0, 16);
  const auto a = m.allocate(3, r8, 10.0);
  const auto b = m.allocate(4, r16, 4.0);
  ASSERT_TRUE(a && b);
  std::string why;
  ASSERT_TRUE(m.check_invariants(&why)) << why;
  ASSERT_TRUE(m.audit_free_set_optimality(&why)) << why;

  // Corrupt the rendered table behind the manager's back (test only).
  auto& table = const_cast<iba::VlArbitrationTable&>(m.table());
  const unsigned first = *m.sequence(*a).positions().begin();
  table.high()[first].weight = 1;
  EXPECT_FALSE(m.check_invariants(&why));
  EXPECT_NE(why.find("slot " + std::to_string(first)), std::string::npos)
      << why;

  // The next change re-renders and repairs the table, for both audits.
  ASSERT_EQ(m.allocate(4, r16, 4.0), b);  // shares b's sequence
  EXPECT_TRUE(m.check_invariants(&why)) << why;
  // A stray entry in a free slot fragments the rendered table: the Theorem-1
  // audit reads the rendered entries, not the manager's masks.
  const unsigned free_slot = static_cast<unsigned>(
      std::countr_zero(~(m.sequence(*a).slots | m.sequence(*b).slots)));
  table.high()[free_slot] = {5, 1};
  EXPECT_FALSE(m.check_invariants(&why));
  EXPECT_NE(why.find("slot " + std::to_string(free_slot)), std::string::npos)
      << why;
  EXPECT_FALSE(m.audit_free_set_optimality(&why));
  // The Theorem-1 audit renders a pending change before it reads.
  m.release(*b, r16, 4.0);
  EXPECT_TRUE(m.audit_free_set_optimality(&why)) << why;
  EXPECT_TRUE(m.check_invariants(&why)) << why;
}

TEST(TableManager, InvariantsFailOnANanReservation) {
  // Comparisons with NaN are false, so a NaN total passes every `a > b`
  // bandwidth check; the audit must not.
  TableManager m(cfg());
  const auto r = req_for(10.0, 8);
  ASSERT_TRUE(
      m.allocate(3, r, std::numeric_limits<double>::quiet_NaN()).has_value());
  std::string why;
  EXPECT_FALSE(m.check_invariants(&why));
  EXPECT_NE(why.find("bandwidth"), std::string::npos) << why;
}

TEST(TableManager, ChurnWithDefrag) {
  // Random allocate/release churn with defragmentation on every release,
  // over a static low table: the invariants hold after every step and a
  // full teardown leaves the high table empty.
  TableManager::Config c;
  c.reservable_fraction = 1.0;
  c.defrag_on_release = true;
  TableManager m(c);
  m.configure_low_priority(
      std::vector<std::pair<iba::VirtualLane, std::uint8_t>>{{14, 32},
                                                             {13, 16}});

  util::Xoshiro256 rng(47);
  constexpr unsigned kDistances[] = {2, 4, 8, 16, 32, 64};
  struct Live {
    SeqHandle h;
    Requirement r;
  };
  std::vector<Live> live;
  for (int i = 0; i < 600; ++i) {
    if (!live.empty() && rng.chance(0.45)) {
      const auto k = rng.below(live.size());
      m.release(live[k].h, live[k].r, 0.001);  // may trigger defragmentation
      live[k] = live.back();
      live.pop_back();
    } else {
      const auto vl = static_cast<iba::VirtualLane>(rng.below(8));
      Requirement r;
      r.distance = kDistances[rng.below(6)];
      r.entries = iba::kArbTableEntries / r.distance;
      r.weight_per_entry = 1 + static_cast<unsigned>(rng.below(60));
      r.total_weight = r.entries * r.weight_per_entry;
      if (const auto h = m.allocate(vl, r, 0.001)) live.push_back(Live{*h, r});
    }
    std::string why;
    ASSERT_TRUE(m.check_invariants(&why)) << "after churn step " << i << ": "
                                          << why;
  }
  for (const auto& l : live) m.release(l.h, l.r, 0.001);
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.table().active_entries_high(), 0u);
  EXPECT_EQ(m.table().total_weight_low(), 48u);
}

TEST(TableManager, DynamicLowTableWeights) {
  TableManager::Config c;
  c.reservable_fraction = 1.0;
  TableManager m(c);
  ASSERT_TRUE(m.add_low_weight(4, 100, 1.0));
  EXPECT_EQ(m.table().vl_weight_low(4), 100u);
  ASSERT_TRUE(m.add_low_weight(5, 300, 1.0));  // spans two 255-capped entries
  EXPECT_EQ(m.table().vl_weight_low(5), 300u);
  EXPECT_EQ(m.table().active_entries_low(), 3u);
  m.remove_low_weight(5, 300, 1.0);
  EXPECT_EQ(m.table().vl_weight_low(5), 0u);
  EXPECT_EQ(m.table().vl_weight_low(4), 100u);
  EXPECT_EQ(m.table().active_entries_low(), 1u);
  EXPECT_TRUE(m.check_invariants());
}

}  // namespace
}  // namespace ibarb::arbtable
