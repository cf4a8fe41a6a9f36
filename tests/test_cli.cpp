#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "paper_runner.hpp"
#include "util/parallel.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace ibarb::util {
namespace {

Cli make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const auto cli = make({"--switches", "16"});
  EXPECT_EQ(cli.get_int("switches", 0), 16);
}

TEST(Cli, EqualsSeparatedValue) {
  const auto cli = make({"--seed=99"});
  EXPECT_EQ(cli.get_int("seed", 0), 99);
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const auto cli = make({});
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, BareFlagIsTrue) {
  const auto cli = make({"--quick"});
  EXPECT_TRUE(cli.has("quick"));
  EXPECT_TRUE(cli.get_bool("quick", false));
}

TEST(Cli, BoolAcceptsTheSixSpellings) {
  for (const char* yes : {"true", "1", "yes"}) {
    EXPECT_TRUE(make({"--profile", yes}).get_bool("profile", false)) << yes;
    const std::string eq = "--profile=" + std::string(yes);
    EXPECT_TRUE(make({eq.c_str()}).get_bool("profile", false)) << yes;
  }
  for (const char* no : {"false", "0", "no"}) {
    EXPECT_FALSE(make({"--profile", no}).get_bool("profile", true)) << no;
  }
}

TEST(Cli, BoolRejectsOtherValuesNamingTheFlag) {
  // `--json out.json` reads the path as the flag's value, and `ture` is a
  // typo; both used to silently turn the flag off.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--json", "out.json"}, {"--json=ture"}, {"--json", "TRUE"},
           {"--json="}}) {
    const auto cli = make(args);
    try {
      (void)cli.get_bool("json", false);
      FAIL() << args.back() << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--json"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(make({"--quiet", "loud"}).std_flags(), std::invalid_argument);
}

TEST(Cli, DoubleParsing) {
  const auto cli = make({"--load", "0.75"});
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0.0), 0.75);
}

TEST(Cli, StringValue) {
  const auto cli = make({"--mtu", "large"});
  EXPECT_EQ(cli.get("mtu", "small"), "large");
}

TEST(Cli, RejectsPositionalArguments) {
  EXPECT_THROW(make({"oops"}), std::invalid_argument);
}

TEST(Cli, RejectsMalformedInteger) {
  const auto cli = make({"--n", "12x"});
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, RejectsMalformedDouble) {
  const auto cli = make({"--x", "abc"});
  EXPECT_THROW(cli.get_double("x", 0.0), std::invalid_argument);
}

TEST(Cli, UnusedFlagsReported) {
  const auto cli = make({"--used", "1", "--typo", "2"});
  (void)cli.get_int("used", 0);
  EXPECT_EQ(cli.unused_flags(), "--typo");
}

TEST(Cli, JobsParsesExplicitCount) {
  const auto cli = make({"--jobs", "3"});
  EXPECT_EQ(cli.jobs(), 3u);
}

TEST(Cli, JobsDefaultsToHardwareConcurrency) {
  const auto cli = make({});
  EXPECT_EQ(cli.jobs(), default_jobs());
  EXPECT_GE(cli.jobs(), 1u);
  // --jobs 0 means "auto", same as the default.
  EXPECT_EQ(make({"--jobs", "0"}).jobs(), default_jobs());
}

TEST(Cli, GetIntInRejectsValuesOutsideTheRangeNamingTheFlag) {
  EXPECT_EQ(make({"--n", "3"}).get_int_in("n", 0, 1, 3), 3);
  EXPECT_EQ(make({}).get_int_in("n", 7, 1, 3), 7);  // defaults are trusted
  for (const char* bad : {"0", "4", "-1"}) {
    try {
      (void)make({"--n", bad}).get_int_in("n", 1, 1, 3);
      FAIL() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--n"), std::string::npos) << msg;
      EXPECT_NE(msg.find("[1, 3]"), std::string::npos) << msg;
    }
  }
}

TEST(Cli, GetDoubleInRejectsNonFiniteAndOutOfRangeValuesNamingTheFlag) {
  EXPECT_EQ(make({"--f", "0.5"}).get_double_in("f", 0.25, 0.0, 1.0), 0.5);
  EXPECT_EQ(make({"--f", "1"}).get_double_in("f", 0.25, 0.0, 1.0), 1.0);
  EXPECT_EQ(make({}).get_double_in("f", 7.0, 0.0, 1.0), 7.0);  // trusted
  for (const char* bad : {"-1", "1.5", "nan", "inf", "-inf"}) {
    try {
      (void)make({"--f", bad}).get_double_in("f", 0.25, 0.0, 1.0);
      FAIL() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--f"), std::string::npos) << msg;
      EXPECT_NE(msg.find("[0, 1]"), std::string::npos) << msg;
    }
  }
  // Without an upper bound only the lower one (and finiteness) applies.
  EXPECT_EQ(make({"--f", "1e6"}).get_double_in("f", 1.0, 1.0), 1e6);
  for (const char* bad : {"0.5", "inf"}) {
    try {
      (void)make({"--f", bad}).get_double_in("f", 1.0, 1.0);
      FAIL() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)make({"--f", "abc"}).get_double_in("f", 1.0, 0.0),
               std::invalid_argument);
}

TEST(Cli, JobsRejectsNegativeCounts) {
  const auto cli = make({"--jobs=-2"});
  EXPECT_THROW(cli.jobs(), std::invalid_argument);
}

TEST(Cli, NegativeNumbersAsValues) {
  // A negative value does not start with "--", so space form works.
  const auto cli = make({"--offset", "-5"});
  EXPECT_EQ(cli.get_int("offset", 0), -5);
}

TEST(Cli, StdFlagsDefaults) {
  const auto cli = make({});
  const auto sf = cli.std_flags(/*default_seed=*/21);
  EXPECT_EQ(sf.jobs, cli.jobs());
  EXPECT_FALSE(sf.json);
  EXPECT_EQ(sf.seed, 21u);
  EXPECT_TRUE(sf.trace_out.empty());
  EXPECT_EQ(sf.sample_every, 0u);
  EXPECT_TRUE(sf.series_csv.empty());
  EXPECT_FALSE(sf.profile);
  EXPECT_FALSE(sf.quiet);
}

TEST(Cli, StdFlagsParsesFullBlock) {
  const auto cli = make({"--jobs", "2", "--json", "--seed", "7",
                         "--trace-out", "t.json", "--sample-every", "4096",
                         "--series-csv", "out", "--profile", "--quiet"});
  const auto sf = cli.std_flags();
  EXPECT_EQ(sf.jobs, 2u);
  EXPECT_TRUE(sf.json);
  EXPECT_EQ(sf.seed, 7u);
  EXPECT_EQ(sf.trace_out, "t.json");
  EXPECT_EQ(sf.sample_every, 4096u);
  EXPECT_EQ(sf.series_csv, "out");
  EXPECT_TRUE(sf.profile);
  EXPECT_TRUE(sf.quiet);
}

TEST(Cli, StdFlagsRejectsNegativeSampleEvery) {
  const auto cli = make({"--sample-every=-1"});
  EXPECT_THROW(cli.std_flags(), std::invalid_argument);
}

TEST(Cli, StdFlagsRejectsMissingOutputParents) {
  // A typo'd directory must fail at flag parse, not after the simulation.
  EXPECT_THROW(make({"--trace-out", "/nonexistent-dir-xyz/t.json"})
                   .std_flags(),
               std::invalid_argument);
  EXPECT_THROW(make({"--series-csv", "/nonexistent-dir-xyz/series"})
                   .std_flags(),
               std::invalid_argument);
  // Bare filenames and "." parents resolve against the cwd, which exists.
  EXPECT_NO_THROW(make({"--trace-out", "t.json"}).std_flags());
  EXPECT_NO_THROW(make({"--series-csv", "./series"}).std_flags());
}

TEST(Cli, StdFlagsMarksBlockAsQueried) {
  // std_flags must consume the whole standard block so warn_unused only
  // fires on genuinely unknown flags.
  const auto cli = make({"--json", "--trace-out=t.json", "--oops", "1"});
  (void)cli.std_flags();
  EXPECT_EQ(cli.unused_flags(), "--oops");
}

TEST(Cli, StdFlagsLeavesTheRunAxesUnused) {
  // The run axes belong to bench::config_from_cli. A bench that only calls
  // std_flags must name them as unused instead of silently ignoring them.
  const auto cli = make({"--crossbar", "islip", "--topo",
                         "torus3d:x=3,y=3,z=3", "--routing", "fattree-dmodk"});
  (void)cli.std_flags();
  EXPECT_EQ(cli.unused_flags(), "--crossbar, --routing, --topo");
}

// --- bench::config_from_cli: the one parser of the paper knobs and run axes.

/// The message of the std::invalid_argument config_from_cli throws, or ""
/// when it accepts the flags.
std::string config_error(std::vector<const char*> args) {
  try {
    (void)bench::config_from_cli(make(std::move(args)));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigFromCli, DefaultsAreThePaperRun) {
  const auto cfg = bench::config_from_cli(make({}));
  EXPECT_EQ(cfg.crossbar, sched::CrossbarImpl::kWrr);
  EXPECT_EQ(cfg.topo, "irregular");
  EXPECT_EQ(cfg.routing, "updown");
}

TEST(ConfigFromCli, ValidatesTopoAtParseTime) {
  EXPECT_EQ(bench::config_from_cli(make({"--topo", "torus3d:x=3,y=3,z=3"}))
                .topo,
            "torus3d:x=3,y=3,z=3");
  // Unknown family, unknown key, bad value and an empty spec all fail
  // before any bench logic runs, naming the flag.
  for (const char* bad : {"hypercube", "torus3d:w=3", "torus3d:x=zero",
                          "single:rate=3", ""}) {
    const auto msg = config_error({"--topo", bad});
    EXPECT_NE(msg.find("--topo"), std::string::npos) << "'" << bad << "'";
  }
}

TEST(ConfigFromCli, ValidatesRoutingAtParseTime) {
  EXPECT_EQ(
      bench::config_from_cli(make({"--routing", "fattree-dmodk"})).routing,
      "fattree-dmodk");
  for (const char* bad : {"ecmp", ""}) {
    const auto msg = config_error({"--routing", bad});
    EXPECT_NE(msg.find("--routing"), std::string::npos) << msg;
    EXPECT_NE(msg.find("updown|minimal-vl-escape|fattree-dmodk"),
              std::string::npos)
        << msg;
  }
}

TEST(ConfigFromCli, ShardsIsRefused) {
  // Runs are sequential: --shards is refused whatever its value, with a
  // diagnostic that names the flag and says why.
  for (const char* value : {"1", "4", "64", "four"}) {
    const auto msg = config_error({"--shards", value});
    EXPECT_NE(msg.find("--shards"), std::string::npos) << value << ": " << msg;
    EXPECT_NE(msg.find("sequential"), std::string::npos)
        << value << ": " << msg;
  }
}

TEST(ConfigFromCli, MtuTakesOnlyTheFourIbaSizes) {
  EXPECT_EQ(bench::config_from_cli(make({"--mtu", "small"})).mtu,
            iba::Mtu::kMtu256);
  EXPECT_EQ(bench::config_from_cli(make({"--mtu", "2048"})).mtu,
            iba::Mtu::kMtu2048);
  EXPECT_EQ(bench::config_from_cli(make({"--mtu", "large"})).mtu,
            iba::Mtu::kMtu4096);
  // 512 is a valid IBA MTU the simulator does not model; an unknown size
  // must not fall back to the bench's default silently.
  for (const char* bad : {"512", "huge", ""}) {
    const auto msg = config_error({"--mtu", bad});
    EXPECT_NE(msg.find("--mtu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("small|256|1024|2048|large|4096"), std::string::npos)
        << msg;
  }
}

TEST(ConfigFromCli, RejectsCountsThatWouldWrap) {
  // Each lands in an unsigned field: unchecked, --switches -3 would become
  // 4294967293 and --packets/--warmup -1 would become 2^64-1.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--switches", "-3"}, {"--switches", "1"}, {"--packets", "-1"},
           {"--packets", "0"}, {"--warmup", "-1"}, {"--seed", "-2"}}) {
    const auto msg = config_error(args);
    EXPECT_NE(msg.find(args.front()), std::string::npos)
        << args.front() << " " << args.back() << ": '" << msg << "'";
  }
  const auto cfg = bench::config_from_cli(
      make({"--switches", "8", "--packets", "3", "--warmup", "0"}));
  EXPECT_EQ(cfg.switches, 8u);
  EXPECT_EQ(cfg.min_rx_packets, 3u);
  EXPECT_EQ(cfg.warmup, 0u);
}

TEST(ConfigFromCli, RejectsNegativeOrNonFiniteBestEffortLoad) {
  // A load is a fraction of the 1x link, so above 1 is out of range too.
  for (const char* bad : {"-0.1", "nan", "inf", "1.5"}) {
    const auto msg = config_error({"--besteffort-load", bad});
    EXPECT_NE(msg.find("--besteffort-load"), std::string::npos) << msg;
  }
  EXPECT_EQ(
      bench::config_from_cli(make({"--besteffort-load", "0"})).besteffort_load,
      0.0);
}

}  // namespace
}  // namespace ibarb::util
