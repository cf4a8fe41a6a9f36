// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value`; unknown flags are reported.
// Deliberately tiny: the binaries only need a handful of numeric knobs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace ibarb::util {

/// The flag block every bench shares (parsed once via Cli::std_flags):
///   --jobs N            parallel sweep workers (0/absent = hw concurrency)
///   --json              machine-readable obs::Report to stdout (or --out)
///   --seed S            base RNG seed for the sweep
///   --trace-out F       write a Chrome trace_event JSON of run 0 to F
///   --sample-every C    sample telemetry every C simulated cycles into the
///                       report's "series" section (0/absent = off)
///   --series-csv DIR    also export run 0's series as CSV files into DIR
///   --profile           enable the wall-clock self-profiler (profile.*
///                       telemetry; nondeterministic, never byte-compared)
///   --quiet             suppress progress/timing chatter on stderr
///
/// The run axes (--crossbar, --shards, --topo, --routing) are not part of
/// this block: bench::config_from_cli parses them, so a bench that never
/// builds a PaperRun reports them as unused flags.
///
/// Boolean flags take a bare `--flag` or one of true|false|1|0|yes|no;
/// any other value throws. Output-path flags (--trace-out, --series-csv)
/// are validated up front: a typo must fail at parse time instead of after
/// the full run.
struct StdFlags {
  unsigned jobs = 1;
  bool json = false;
  std::uint64_t seed = 1;
  std::string trace_out;    ///< Empty = tracing disabled.
  std::uint64_t sample_every = 0;  ///< 0 = series recording disabled.
  std::string series_csv;   ///< Empty = no CSV export.
  bool profile = false;
  bool quiet = false;
};

class Cli {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (missing value, non-flag positional argument).
  Cli(int argc, const char* const* argv);

  bool has(std::string_view name) const;
  std::string get(std::string_view name, std::string default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  /// get_int that also requires a supplied value to lie in [lo, hi]; throws
  /// naming the flag and the valid range otherwise. The default is trusted.
  std::int64_t get_int_in(
      std::string_view name, std::int64_t default_value, std::int64_t lo,
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  double get_double(std::string_view name, double default_value) const;
  /// get_double that also requires a supplied value to be finite and lie in
  /// [lo, hi]; throws naming the flag and the valid range otherwise (NaN
  /// and infinities included). The default is trusted.
  double get_double_in(
      std::string_view name, double default_value, double lo,
      double hi = std::numeric_limits<double>::max()) const;
  bool get_bool(std::string_view name, bool default_value) const;

  /// Worker count from `--jobs N`, clamped to >= 1. The default (also used
  /// for `--jobs 0`) is the hardware concurrency, so sweeps use the whole
  /// machine unless told otherwise; `--jobs 1` forces the sequential path.
  unsigned jobs() const;

  /// Queries the standard bench flag block in one shot.
  StdFlags std_flags(std::uint64_t default_seed = 1) const;

  /// Flags that were supplied but never queried — typo detection.
  std::string unused_flags() const;

  /// Prints the standard "unknown flags" warning to `err` when any supplied
  /// flag was never queried. Call after all get_* calls, right before exit.
  void warn_unused(std::ostream& err) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> queried_;
};

}  // namespace ibarb::util
