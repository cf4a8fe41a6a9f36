#include "report_common.hpp"

#include <fstream>
#include <iostream>

namespace ibarb::bench {

obs::Snapshot merged_telemetry(
    const std::vector<std::unique_ptr<PaperRun>>& runs) {
  std::vector<obs::Snapshot> parts;
  parts.reserve(runs.size());
  for (const auto& run : runs) parts.push_back(run->sim->telemetry_snapshot());
  return obs::Snapshot::merge(parts);
}

obs::Snapshot merged_telemetry(const SweepResult& sweep) {
  return merged_telemetry(sweep.runs);
}

void apply_run0_observability(PaperRunConfig& cfg,
                              const util::StdFlags& flags) {
  if (!flags.trace_out.empty()) cfg.trace_capacity = kTraceOutCapacity;
  cfg.sample_every = flags.sample_every;
  cfg.profile = flags.profile;
}

void attach_series(obs::Report& report, const PaperRun& run) {
  if (run.series.has_value()) report.series(*run.series);
}

bool export_series_csv(const obs::SeriesData& series,
                       const util::StdFlags& flags) {
  if (flags.series_csv.empty()) return true;
  if (!obs::write_series_csv(series, flags.series_csv)) return false;
  std::cerr << "wrote " << flags.series_csv << "/ (" << series.windows()
            << " series windows)\n";
  return true;
}

bool export_series_csv(const PaperRun& run, const util::StdFlags& flags) {
  if (!run.series.has_value()) return true;
  return export_series_csv(*run.series, flags);
}

std::vector<obs::CounterTrack> series_tracks(const obs::SeriesData& s) {
  std::vector<obs::CounterTrack> tracks;
  const auto track = [&](const std::string& name, const auto& values) {
    obs::CounterTrack t;
    t.name = name;
    t.points.reserve(s.time.size());
    for (std::size_t i = 0; i < s.time.size() && i < values.size(); ++i)
      t.points.emplace_back(s.time[i], static_cast<double>(values[i]));
    if (!t.points.empty()) tracks.push_back(std::move(t));
  };
  track("qos.missed", s.qos.missed);
  track("qos.late", s.qos.late);
  track("qos.drops", s.qos.drops);
  for (const auto& sl : s.sl_delay)
    track("sl" + std::to_string(sl.sl) + ".delay_p99", sl.p99);
  return tracks;
}

std::vector<obs::CounterTrack> series_tracks(const PaperRun& run) {
  if (!run.series.has_value()) return {};
  return series_tracks(*run.series);
}

void echo_config(obs::Report& report, const PaperRunConfig& cfg) {
  report.config("topo", resolve_topology(cfg).canonical());
  report.config("routing", cfg.routing);
  report.config("switches", static_cast<std::uint64_t>(cfg.switches));
  report.config("mtu_bytes",
                static_cast<std::uint64_t>(iba::mtu_bytes(cfg.mtu)));
  report.config("seed", cfg.seed);
  report.config("min_rx_packets", cfg.min_rx_packets);
  report.config("warmup", static_cast<std::uint64_t>(cfg.warmup));
  report.config("besteffort_load", cfg.besteffort_load);
  report.config("scheme", cfg.scheme == qos::Scheme::kNewProposal
                              ? "new_proposal"
                              : "legacy");
  report.config("buffer_packets",
                static_cast<std::uint64_t>(cfg.buffer_packets));
  report.config("limit_of_high_priority",
                static_cast<std::uint64_t>(cfg.limit_of_high_priority));
}

void write_sl_series(util::JsonWriter& w,
                     const std::vector<PaperRun::SlSeries>& series) {
  w.begin_array();
  for (const auto& s : series) {
    w.begin_object();
    w.kv("sl", static_cast<std::uint64_t>(s.sl));
    w.kv("connections", s.connections);
    w.kv("rx_packets", s.rx_packets);
    w.kv("deadline_misses", s.deadline_misses);
    w.key("within").begin_array();
    for (const double v : s.within) w.value(v);
    w.end_array();
    w.key("jitter").begin_array();
    for (const double v : s.jitter) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void write_table2(util::JsonWriter& w, const PaperRun::Table2Row& row) {
  w.begin_object();
  w.kv("injected_bytes_per_cycle_per_node",
       row.injected_bytes_per_cycle_per_node);
  w.kv("delivered_bytes_per_cycle_per_node",
       row.delivered_bytes_per_cycle_per_node);
  w.kv("host_utilization", row.host_utilization);
  w.kv("switch_utilization", row.switch_utilization);
  w.kv("host_reserved_mbps", row.host_reserved_mbps);
  w.kv("switch_reserved_mbps", row.switch_reserved_mbps);
  w.end_object();
}

int flag_error(const std::invalid_argument& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

int emit_report(const obs::Report& report, const util::Cli& cli) {
  const auto out = cli.get("out", "");
  if (out.empty() || out == "-") {
    report.write(std::cout);
    return 0;
  }
  std::ofstream f(out, std::ios::binary);
  if (!f) {
    std::cerr << "error: cannot open --out file " << out << "\n";
    return 1;
  }
  report.write(f);
  std::cerr << "wrote " << out << "\n";
  return 0;
}

bool emit_trace(const std::string& path, const sim::PacketTrace& trace,
                const std::vector<obs::PhaseSpan>& spans,
                const std::vector<obs::CounterTrack>& counters) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "error: cannot open --trace-out file " << path << "\n";
    return false;
  }
  obs::write_chrome_trace(f, trace, spans, counters);
  std::cerr << "wrote " << path << " (" << trace.size()
            << " trace records)\n";
  return true;
}

bool emit_run_trace(const std::string& path, const PaperRun& run) {
  return emit_trace(path, run.sim->trace(), {}, series_tracks(run));
}

}  // namespace ibarb::bench
