#include "sim/metrics.hpp"

#include <algorithm>
#include <cassert>

#include "obs/series.hpp"

namespace ibarb::sim {

void Metrics::record_injection(std::uint32_t conn, const iba::Packet& p) {
  if (!enabled_) return;
  auto& c = connections[conn];
  ++c.tx_packets;
  c.tx_wire_bytes += p.wire_bytes();
}

void Metrics::record_delivery(std::uint32_t conn, const iba::Packet& p,
                              iba::Cycle now) {
  if (series_ && conn < connections.size()) {
    assert(now >= p.injected_at);
    const auto& c = connections[conn];
    series_->record_delivery(conn, c.sl, now - p.injected_at,
                             p.deadline > 0 ? p.deadline : c.deadline);
  }
  if (!enabled_) return;
  auto& c = connections[conn];
  ++c.rx_packets;
  c.rx_wire_bytes += p.wire_bytes();
  c.rx_payload_bytes += p.payload_bytes;

  assert(now >= p.injected_at);
  const iba::Cycle cycles = now - p.injected_at;
  c.delay_sum += cycles;
  c.delay_max = std::max(c.delay_max, cycles);
  const auto delay = static_cast<double>(cycles);
  // Judge against the guarantee contracted at injection time when the
  // packet carries one; reroutes may have changed the connection's deadline
  // while this packet was in flight.
  const iba::Cycle contracted = p.deadline > 0 ? p.deadline : c.deadline;
  if (contracted > 0) {
    const auto d = static_cast<double>(contracted);
    for (std::size_t i = 0; i < kDelayThresholds; ++i)
      if (delay <= d / kDelayThresholdDivisors[i]) ++c.within_threshold[i];
    if (delay > d) ++c.deadline_misses;
  }

  if (c.nominal_iat > 0) {
    if (c.last_arrival != iba::kNeverCycle && now >= c.last_arrival) {
      const double gap = static_cast<double>(now - c.last_arrival);
      const double deviation =
          (gap - static_cast<double>(c.nominal_iat)) /
          static_cast<double>(c.nominal_iat);
      // Bin 0: below -IAT. Bins 1..9 between consecutive edges. Last bin:
      // above +IAT.
      std::size_t bin = 0;
      if (deviation < kJitterEdges[0]) {
        bin = 0;
      } else if (deviation >= kJitterEdges[std::size(kJitterEdges) - 1]) {
        bin = kJitterBins - 1;
      } else {
        bin = 1;
        for (std::size_t e = 1; e < std::size(kJitterEdges); ++e) {
          if (deviation < kJitterEdges[e]) break;
          ++bin;
        }
      }
      ++c.jitter_bins[bin];
    }
    c.last_arrival = now;
  }
}

void Metrics::record_tx(std::uint32_t flat_port, std::uint32_t wire_bytes,
                        iba::Cycle serialization) {
  if (!enabled_) return;
  auto& p = ports[flat_port];
  p.busy_cycles += serialization;
  p.wire_bytes += wire_bytes;
  ++p.packets;
}

void Metrics::record_drop(std::uint32_t conn) {
  if (conn >= connections.size()) return;  // management MADs carry no conn
  if (series_) series_->record_drop(conn);
  if (!enabled_) return;
  ++connections[conn].dropped_packets;
}

std::uint64_t Metrics::min_qos_rx() const {
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const auto& c : connections) {
    if (!c.qos) continue;
    any = true;
    lo = std::min(lo, c.rx_packets);
  }
  return any ? lo : 0;
}

}  // namespace ibarb::sim
