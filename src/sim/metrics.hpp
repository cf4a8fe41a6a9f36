// Measurement machinery: per-connection delay/jitter/throughput and
// per-port utilization, gathered only during the steady-state window
// (paper §4.2: a transient period precedes measurement).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "iba/packet.hpp"
#include "iba/types.hpp"

namespace ibarb::obs {
class SeriesRecorder;
}

namespace ibarb::sim {

/// Jitter interval edges, as multiples of the connection's nominal
/// inter-arrival time — the exact x-axis of the paper's Figure 5.
inline constexpr double kJitterEdges[] = {-1.0,       -3.0 / 4.0, -1.0 / 2.0,
                                          -1.0 / 4.0, -1.0 / 8.0, 1.0 / 8.0,
                                          1.0 / 4.0,  1.0 / 2.0,  3.0 / 4.0,
                                          1.0};
inline constexpr std::size_t kJitterBins =
    std::size(kJitterEdges) - 1 + 2;  // plus <-IAT and >+IAT overflow bins

/// Delay thresholds, as fractions Deadline/k — the x-axis of Figures 4/6.
inline constexpr double kDelayThresholdDivisors[] = {30, 25, 20, 15, 10,
                                                     5,  3,  2,  1.5, 1};
inline constexpr std::size_t kDelayThresholds =
    std::size(kDelayThresholdDivisors);

struct ConnectionMetrics {
  iba::ServiceLevel sl = 0;
  iba::Cycle deadline = 0;      ///< End-to-end guarantee, cycles.
  iba::Cycle nominal_iat = 0;   ///< CBR inter-arrival time, cycles.
  bool qos = true;              ///< False for best-effort background flows.

  // Measurement-window accumulators.
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_wire_bytes = 0;
  std::uint64_t rx_wire_bytes = 0;
  std::uint64_t rx_payload_bytes = 0;
  std::uint64_t delay_sum = 0;  ///< Sum of end-to-end delays, cycles.
  std::uint64_t delay_max = 0;  ///< Largest end-to-end delay, cycles.
  /// rx counts with delay <= deadline / kDelayThresholdDivisors[i].
  std::array<std::uint64_t, kDelayThresholds> within_threshold{};
  std::array<std::uint64_t, kJitterBins> jitter_bins{};
  std::uint64_t deadline_misses = 0;
  /// Packets discarded by the fault layer (corruption, drop windows, or
  /// flushes of a downed port) during the measurement window.
  std::uint64_t dropped_packets = 0;

  iba::Cycle last_arrival = iba::kNeverCycle;  ///< For jitter pairing.

  /// Mean end-to-end delay in cycles; 0 when nothing was received.
  double mean_delay() const {
    return rx_packets ? static_cast<double>(delay_sum) /
                            static_cast<double>(rx_packets)
                      : 0.0;
  }

  /// Fraction of received packets meeting deadline/divisor. NaN when the
  /// connection received nothing — "no data" must stay distinguishable from
  /// "every packet missed" (the JSON writer maps NaN to null; table-format
  /// benches print a dash).
  double fraction_within(std::size_t threshold_index) const {
    return rx_packets ? static_cast<double>(within_threshold[threshold_index]) /
                            static_cast<double>(rx_packets)
                      : std::numeric_limits<double>::quiet_NaN();
  }

  double fraction_jitter_bin(std::size_t bin) const {
    std::uint64_t total = 0;
    for (const auto c : jitter_bins) total += c;
    return total ? static_cast<double>(jitter_bins[bin]) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

struct PortMetrics {
  bool is_host_interface = false;  ///< Host→switch injection port.
  double link_mbps = 0.0;
  double reserved_mbps = 0.0;      ///< Filled by admission control.
  std::uint64_t busy_cycles = 0;   ///< Cycles spent serializing (window).
  std::uint64_t wire_bytes = 0;
  std::uint64_t packets = 0;

  double utilization(iba::Cycle window) const {
    return window ? static_cast<double>(busy_cycles) /
                        static_cast<double>(window)
                  : 0.0;
  }
};

/// Owned by the Simulator; the record_* hooks are called from the hot path
/// and are no-ops outside the measurement window.
class Metrics {
 public:
  void start_window(iba::Cycle now) {
    window_start_ = now;
    enabled_ = true;
  }
  void stop_window(iba::Cycle now) {
    window_end_ = now;
    enabled_ = false;
  }
  bool enabled() const noexcept { return enabled_; }
  iba::Cycle window_start() const noexcept { return window_start_; }
  iba::Cycle window_length() const noexcept {
    return window_end_ > window_start_ ? window_end_ - window_start_ : 0;
  }

  std::vector<ConnectionMetrics> connections;
  std::vector<PortMetrics> ports;  ///< Indexed by flat port id (simulator).

  void record_injection(std::uint32_t conn, const iba::Packet& p);
  void record_delivery(std::uint32_t conn, const iba::Packet& p,
                       iba::Cycle now);
  void record_tx(std::uint32_t flat_port, std::uint32_t wire_bytes,
                 iba::Cycle serialization);
  /// A packet of `conn` was discarded by the fault layer before delivery.
  void record_drop(std::uint32_t conn);

  /// rx packets delivered inside the window, cheap loop (phase control).
  std::uint64_t min_qos_rx() const;

  /// Wires the time-series recorder (null to detach). Series hooks fire for
  /// the WHOLE run, not just the measurement window — the series carries its
  /// own time axis, and the degrade/restore arc must stay visible even when
  /// a bench measures a sub-window.
  void set_series(obs::SeriesRecorder* series) noexcept { series_ = series; }

 private:
  bool enabled_ = false;
  iba::Cycle window_start_ = 0;
  iba::Cycle window_end_ = 0;
  obs::SeriesRecorder* series_ = nullptr;
};

}  // namespace ibarb::sim
