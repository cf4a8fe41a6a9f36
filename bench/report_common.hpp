// Shared machine-readable reporting for the paper benches. Every bench
// builds an obs::Report (schema "ibarb.report/2"), attaches its figures and
// the merged telemetry snapshot, and emits through emit_report — the ONE
// serialization path (util::JsonWriter). There are no hand-rolled JSON
// printers in bench/ anymore; tools/report_schema.json +
// tools/validate_report.py check the envelope in CI.
//
// Determinism: reports must diff byte-identical across --jobs, so nothing
// wall-clock or machine-dependent goes into them — timing stays on stderr.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "sweep_runner.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace ibarb::bench {

/// Trace-ring size used for --trace-out runs: big enough to keep every
/// milestone of a quick run, bounded for long ones.
inline constexpr std::size_t kTraceOutCapacity = 1u << 18;

/// Applies the run-0 observability knobs from the standard flags: packet
/// tracing (--trace-out), series sampling (--sample-every) and the
/// self-profiler (--profile). Sweeps call this on cfgs[0] only, so every
/// exported artefact comes from one self-contained, deterministic run.
void apply_run0_observability(PaperRunConfig& cfg, const util::StdFlags& flags);

/// Attaches run.series to the report's `series` section (no-op when the run
/// recorded no series).
void attach_series(obs::Report& report, const PaperRun& run);

/// Exports the CSV bundle for --series-csv DIR. No-op (returning true) when
/// the flag or the series is absent; false after printing to stderr when the
/// export fails.
bool export_series_csv(const obs::SeriesData& series,
                       const util::StdFlags& flags);
bool export_series_csv(const PaperRun& run, const util::StdFlags& flags);

/// Chrome counter tracks derived from a run's series: the QoS audit
/// timelines (missed/late/drops per window) plus per-SL p99 delay. Empty
/// when the run recorded no series.
std::vector<obs::CounterTrack> series_tracks(const obs::SeriesData& series);
std::vector<obs::CounterTrack> series_tracks(const PaperRun& run);

/// Per-run telemetry snapshots merged in run-index order — byte-identical
/// for any --jobs value by the sweep determinism contract.
obs::Snapshot merged_telemetry(const SweepResult& sweep);
obs::Snapshot merged_telemetry(
    const std::vector<std::unique_ptr<PaperRun>>& runs);

/// Standard config echo of a PaperRunConfig into report.config.
void echo_config(obs::Report& report, const PaperRunConfig& cfg);

/// Figure payload: the per-SL series array (within/jitter fractions).
void write_sl_series(util::JsonWriter& w,
                     const std::vector<PaperRun::SlSeries>& series);

/// Figure payload: one Table-2 aggregate row object.
void write_table2(util::JsonWriter& w, const PaperRun::Table2Row& row);

/// The exit path of every bench `main` for a malformed flag (or any other
/// std::invalid_argument): prints "error: <what>" to stderr and returns 2,
/// so bad input ends with a diagnostic instead of std::terminate.
int flag_error(const std::invalid_argument& e);

/// Writes the report to `--out FILE` when given (or "-"/absent: stdout).
/// Returns the process exit code.
int emit_report(const obs::Report& report, const util::Cli& cli);

/// Writes a Chrome trace_event file for --trace-out.
/// Returns false (and prints to stderr) when the file cannot be opened.
bool emit_trace(const std::string& path, const sim::PacketTrace& trace,
                const std::vector<obs::PhaseSpan>& spans = {},
                const std::vector<obs::CounterTrack>& counters = {});

/// The standard --trace-out export for a paper run: the packet-trace ring
/// and the series counter tracks.
bool emit_run_trace(const std::string& path, const PaperRun& run);

}  // namespace ibarb::bench
