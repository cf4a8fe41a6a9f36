#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ibarb::sim {
namespace {

iba::Packet pkt(std::uint32_t payload, iba::Cycle injected) {
  iba::Packet p;
  p.payload_bytes = payload;
  p.injected_at = injected;
  return p;
}

Metrics fresh(iba::Cycle deadline, iba::Cycle iat) {
  Metrics m;
  ConnectionMetrics c;
  c.deadline = deadline;
  c.nominal_iat = iat;
  m.connections.push_back(c);
  m.ports.push_back(PortMetrics{});
  return m;
}

TEST(Metrics, RecordsNothingOutsideWindow) {
  auto m = fresh(1000, 100);
  m.record_injection(0, pkt(256, 0));
  m.record_delivery(0, pkt(256, 0), 10);
  m.record_tx(0, 256, 10);
  EXPECT_EQ(m.connections[0].tx_packets, 0u);
  EXPECT_EQ(m.connections[0].rx_packets, 0u);
  EXPECT_EQ(m.ports[0].packets, 0u);
}

TEST(Metrics, WindowGatesAndMeasuresLength) {
  auto m = fresh(1000, 100);
  m.start_window(500);
  EXPECT_TRUE(m.enabled());
  m.record_injection(0, pkt(256, 500));
  m.stop_window(1500);
  EXPECT_FALSE(m.enabled());
  EXPECT_EQ(m.window_length(), 1000u);
  EXPECT_EQ(m.connections[0].tx_packets, 1u);
  m.record_injection(0, pkt(256, 1600));  // after the window
  EXPECT_EQ(m.connections[0].tx_packets, 1u);
}

TEST(Metrics, ThresholdCountsFollowDeadlineFractions) {
  auto m = fresh(/*deadline=*/3000, /*iat=*/0);
  m.start_window(0);
  // Delay 100 = D/30 exactly: inside every threshold.
  m.record_delivery(0, pkt(10, 0), 100);
  // Delay 1000 = D/3: inside D/3, D/2, D/1.5, D only.
  m.record_delivery(0, pkt(10, 0), 1000);
  // Delay 3001 > D: inside none, and a deadline miss.
  m.record_delivery(0, pkt(10, 0), 3001);
  const auto& c = m.connections[0];
  EXPECT_EQ(c.rx_packets, 3u);
  EXPECT_EQ(c.deadline_misses, 1u);
  // kDelayThresholdDivisors = {30,25,20,15,10,5,3,2,1.5,1}
  EXPECT_EQ(c.within_threshold[0], 1u);                       // D/30
  EXPECT_EQ(c.within_threshold[kDelayThresholds - 4], 2u);    // D/3
  EXPECT_EQ(c.within_threshold[kDelayThresholds - 1], 2u);    // D
  EXPECT_DOUBLE_EQ(c.fraction_within(kDelayThresholds - 1), 2.0 / 3.0);
}

TEST(Metrics, DelaySumMaxAndMeanAreExact) {
  auto m = fresh(/*deadline=*/3000, /*iat=*/0);
  const auto& c = m.connections[0];
  EXPECT_EQ(c.mean_delay(), 0.0);  // no rx yet
  m.record_delivery(0, pkt(10, 0), 999);  // before the window: not counted
  EXPECT_EQ(c.delay_sum, 0u);
  EXPECT_EQ(c.delay_max, 0u);
  EXPECT_EQ(c.mean_delay(), 0.0);

  m.start_window(100);
  m.record_delivery(0, pkt(10, 100), 107);   // delay 7
  m.record_delivery(0, pkt(10, 100), 5100);  // delay 5000
  m.record_delivery(0, pkt(10, 200), 202);   // delay 2
  m.stop_window(6000);
  m.record_delivery(0, pkt(10, 0), 90000);   // after the window: not counted
  EXPECT_EQ(c.rx_packets, 3u);
  EXPECT_EQ(c.delay_sum, 5009u);
  EXPECT_EQ(c.delay_max, 5000u);
  EXPECT_DOUBLE_EQ(c.mean_delay(), 5009.0 / 3.0);
}

TEST(Metrics, FractionWithinIsNanWithoutReceivedPackets) {
  // "No data" must not read as "every packet missed": an empty cell is NaN
  // (null in JSON, a dash in the table benches), never 0.0.
  auto m = fresh(/*deadline=*/3000, /*iat=*/0);
  m.start_window(0);
  const auto& c = m.connections[0];
  EXPECT_EQ(c.rx_packets, 0u);
  for (std::size_t k = 0; k < kDelayThresholds; ++k)
    EXPECT_TRUE(std::isnan(c.fraction_within(k)));
}

TEST(Metrics, JitterBinsCentreAndTails) {
  auto m = fresh(/*deadline=*/0, /*iat=*/1000);
  m.start_window(0);
  m.record_delivery(0, pkt(10, 0), 1000);   // first arrival: no gap yet
  m.record_delivery(0, pkt(10, 0), 2000);   // gap 1000 = IAT: deviation 0
  m.record_delivery(0, pkt(10, 0), 3600);   // gap 1600: deviation +0.6
  m.record_delivery(0, pkt(10, 0), 3700);   // gap 100: deviation -0.9
  m.record_delivery(0, pkt(10, 0), 9999);   // gap >> IAT: beyond +IAT
  const auto& c = m.connections[0];
  // Bins: 0 <-IAT | 1 [-1,-3/4) | ... | 5 centre | ... | 9 [3/4,1) | 10 >+IAT
  EXPECT_EQ(c.jitter_bins[5], 1u);   // deviation 0
  EXPECT_EQ(c.jitter_bins[8], 1u);   // +0.6 in [1/2, 3/4)
  EXPECT_EQ(c.jitter_bins[1], 1u);   // -0.9 in [-1, -3/4)
  EXPECT_EQ(c.jitter_bins[10], 1u);  // beyond +IAT
  EXPECT_DOUBLE_EQ(c.fraction_jitter_bin(5), 0.25);
}

TEST(Metrics, TxAccountingPerPort) {
  auto m = fresh(0, 0);
  m.start_window(0);
  m.record_tx(0, 282, 282);
  m.record_tx(0, 282, 282);
  m.stop_window(1000);
  EXPECT_EQ(m.ports[0].packets, 2u);
  EXPECT_EQ(m.ports[0].wire_bytes, 564u);
  EXPECT_DOUBLE_EQ(m.ports[0].utilization(m.window_length()), 0.564);
}

TEST(Metrics, MinQosRxIgnoresBestEffort) {
  Metrics m;
  ConnectionMetrics qos1;
  qos1.qos = true;
  ConnectionMetrics be;
  be.qos = false;
  ConnectionMetrics qos2;
  qos2.qos = true;
  m.connections = {qos1, be, qos2};
  m.start_window(0);
  m.record_delivery(0, pkt(10, 0), 1);
  m.record_delivery(0, pkt(10, 0), 2);
  m.record_delivery(2, pkt(10, 0), 3);
  EXPECT_EQ(m.min_qos_rx(), 1u) << "slowest QoS connection has 1 packet";
}

TEST(Metrics, MinQosRxZeroWhenNoQosConnections) {
  Metrics m;
  ConnectionMetrics be;
  be.qos = false;
  m.connections = {be};
  EXPECT_EQ(m.min_qos_rx(), 0u);
}

TEST(Metrics, DelayStatsAccumulate) {
  auto m = fresh(0, 0);
  m.start_window(0);
  m.record_delivery(0, pkt(10, 100), 150);
  m.record_delivery(0, pkt(10, 100), 250);
  const auto& c = m.connections[0];
  EXPECT_EQ(c.rx_packets, 2u);
  EXPECT_DOUBLE_EQ(c.mean_delay(), 100.0);
  EXPECT_EQ(c.delay_max, 150u);
}

TEST(Metrics, PacketDeadlineOverridesConnectionDeadline) {
  auto m = fresh(/*deadline=*/3000, /*iat=*/0);
  m.start_window(0);
  // Stamped at injection under a tighter (pre-reroute) contract: judged
  // against the stamp, not the connection's current deadline.
  auto stamped = pkt(10, 0);
  stamped.deadline = 500;
  m.record_delivery(0, stamped, 600);
  // Unstamped packet falls back to the connection deadline.
  m.record_delivery(0, pkt(10, 0), 600);
  EXPECT_EQ(m.connections[0].deadline_misses, 1u);
  EXPECT_EQ(m.connections[0].rx_packets, 2u);
}

}  // namespace
}  // namespace ibarb::sim
