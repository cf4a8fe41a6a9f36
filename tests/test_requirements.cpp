#include "arbtable/requirements.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "arbtable/bit_reversal.hpp"
#include "iba/link.hpp"

namespace ibarb::arbtable {
namespace {

constexpr double kLink = iba::kBaseLinkMbps;  // 2000 Mbps (1x data rate)

TEST(BandwidthToWeight, FullLinkIsFullTable) {
  EXPECT_EQ(bandwidth_to_weight(kLink, kLink), iba::kFullTableWeight);
}

TEST(BandwidthToWeight, TinyRateGetsAtLeastOneUnit) {
  EXPECT_EQ(bandwidth_to_weight(0.0001, kLink), 1u);
  EXPECT_EQ(bandwidth_to_weight(0.0, kLink), 1u);
}

TEST(BandwidthToWeight, ProportionalAndCeiled) {
  // 1 Mbps of 2000 -> 16320/2000 = 8.16 -> 9 units.
  EXPECT_EQ(bandwidth_to_weight(1.0, kLink), 9u);
  // Half the link.
  EXPECT_EQ(bandwidth_to_weight(kLink / 2, kLink), iba::kFullTableWeight / 2);
}

TEST(WeightToBandwidth, InverseOnExactPoints) {
  EXPECT_DOUBLE_EQ(weight_to_bandwidth(iba::kFullTableWeight, kLink), kLink);
  EXPECT_DOUBLE_EQ(weight_to_bandwidth(iba::kFullTableWeight / 2, kLink),
                   kLink / 2);
}

TEST(ComputeRequirement, LatencyDominatedRequest) {
  // 1 Mbps, distance 8: latency needs 8 entries; weight 9 fits in them.
  const auto req = compute_requirement(1.0, kLink, 8);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->distance, 8u);
  EXPECT_EQ(req->entries, 8u);
  EXPECT_EQ(req->weight_per_entry, 2u);  // ceil(9/8)
}

TEST(ComputeRequirement, BandwidthDominatedRequestShrinksDistance) {
  // 500 Mbps -> weight 4080 -> ceil(4080/255) = 16 entries minimum, even
  // though distance 64 would only need one.
  const auto req = compute_requirement(500.0, kLink, 64);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->entries, 16u);
  EXPECT_EQ(req->distance, 4u);
  EXPECT_EQ(req->weight_per_entry, 255u);
}

TEST(ComputeRequirement, EntriesTimesDistanceIsTableSize) {
  for (unsigned d = 1; d <= 64; d *= 2)
    for (const double mbps : {0.5, 1.0, 10.0, 100.0, 900.0}) {
      const auto req = compute_requirement(mbps, kLink, d);
      ASSERT_TRUE(req.has_value());
      EXPECT_EQ(req->entries * req->distance, iba::kArbTableEntries);
      EXPECT_LE(req->distance, d);
      EXPECT_LE(req->weight_per_entry, iba::kMaxEntryWeight);
      EXPECT_GE(req->weight_per_entry, 1u);
    }
}

TEST(ComputeRequirement, NonPowerOfTwoDistanceRoundsDown) {
  const auto req = compute_requirement(1.0, kLink, 50);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->distance, 32u);  // floor_pow2(50)
}

TEST(ComputeRequirement, ReservationCoversRequest) {
  // total reserved weight must represent at least the requested bandwidth.
  for (const double mbps : {0.3, 1.7, 12.0, 64.0, 333.3, 1500.0}) {
    const auto req = compute_requirement(mbps, kLink, 64);
    ASSERT_TRUE(req.has_value());
    EXPECT_GE(weight_to_bandwidth(req->total_weight, kLink), mbps);
  }
}

TEST(ComputeRequirement, InfeasibleBeyondLink) {
  EXPECT_FALSE(compute_requirement(kLink * 1.01, kLink, 64).has_value());
  // 8.16e12 weight units: beyond unsigned's range, not merely the table's.
  EXPECT_EQ(compute_requirement(1e12, kLink, 8), std::nullopt);
}

TEST(ComputeRequirement, FullLinkIsFeasible) {
  const auto req = compute_requirement(kLink, kLink, 64);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->entries, 64u);
  EXPECT_EQ(req->weight_per_entry, 255u);
}

TEST(ComputeRequirement, FasterLinkNeedsLessWeight) {
  const auto on_1x = compute_requirement(100.0, 2000.0, 64);
  const auto on_4x = compute_requirement(100.0, 8000.0, 64);
  ASSERT_TRUE(on_1x && on_4x);
  EXPECT_GT(on_1x->total_weight, on_4x->total_weight);
}

// Parameterized sweep: distance x bandwidth grid, structural invariants.
class RequirementSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, double>> {};

TEST_P(RequirementSweep, StructurallySound) {
  const auto [distance, mbps] = GetParam();
  const auto req = compute_requirement(mbps, kLink, distance);
  ASSERT_TRUE(req.has_value());
  EXPECT_TRUE(is_pow2(req->distance));
  EXPECT_EQ(req->entries, iba::kArbTableEntries / req->distance);
  EXPECT_EQ(req->total_weight, req->entries * req->weight_per_entry);
  // Latency never degraded, bandwidth never shorted.
  EXPECT_LE(req->distance, distance);
  EXPECT_GE(req->total_weight, bandwidth_to_weight(mbps, kLink));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RequirementSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u, 32u, 64u),
                       ::testing::Values(0.25, 1.0, 4.0, 16.0, 31.9, 128.0,
                                         511.0, 1999.0)));

}  // namespace
}  // namespace ibarb::arbtable
