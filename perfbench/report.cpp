// Order statistics, seeds, span bookkeeping and the layer metrics every
// workload shares.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "obs/chrome_trace.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {
constexpr double kHistLowUs = 0.01;
const double kHistLogStep = std::log(1.01);
}  // namespace

void LatencyHistogram::add(double us) {
  const double pos = std::log(std::max(us, kHistLowUs) / kHistLowUs) /
                     kHistLogStep;
  ++bins_[std::min(static_cast<std::size_t>(pos), kBins - 1)];
  ++count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double below = 0.0;
  for (std::size_t i = 0; i < kBins; ++i) {
    const auto n = static_cast<double>(bins_[i]);
    if (n > 0.0 && below + n >= target) {
      const double pos = static_cast<double>(i) + (target - below) / n;
      return kHistLowUs * std::exp(pos * kHistLogStep);
    }
    below += n;
  }
  return kHistLowUs * std::exp(static_cast<double>(kBins) * kHistLogStep);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  ibarb::util::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + stream);
  return sm.next();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter(const ibarb::obs::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double gauge(const ibarb::obs::Snapshot& s, const char* name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second.first;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_setup_layers(Result& res, const std::vector<SetupTimes>& setups) {
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return median(v);
  };
  auto& L = res.per_layer;
  L["network.build_ms"] = {med(&SetupTimes::network_build_ms), "ms"};
  L["subnet.route_ms"] = {med(&SetupTimes::subnet_route_ms), "ms"};
  L["qos.ctor_ms"] = {med(&SetupTimes::admission_ctor_ms), "ms"};
  L["subnet.configure_ms"] = {med(&SetupTimes::subnet_configure_ms), "ms"};
  L["sim.ctor_ms"] = {med(&SetupTimes::sim_ctor_ms), "ms"};
  L["traffic.build_ms"] = {med(&SetupTimes::traffic_build_ms), "ms"};
}

void add_admission_layers(Result& res, const ibarb::obs::Snapshot& s) {
  auto& L = res.per_layer;
  const auto c = [&](const char* name) {
    return static_cast<double>(counter(s, name));
  };
  const double requests = c("tm.accepted") + c("tm.rejected");
  L["qos.setup_requests"] = {requests, "count"};
  L["qos.accept_ratio"] = {ratio(c("tm.accepted"), requests), "frac"};
  L["tm.allocations"] = {c("tm.allocations"), "count"};
  L["tm.shares"] = {c("tm.shares"), "count"};
  L["tm.share_ratio"] = {
      ratio(c("tm.shares"), c("tm.shares") + c("tm.allocations")), "frac"};
  L["tm.reject_entries"] = {c("tm.reject_entries"), "count"};
  L["tm.reject_bandwidth"] = {c("tm.reject_bandwidth"), "count"};
  L["tm.defrag_runs"] = {c("tm.defrag_runs"), "count"};
}

void Tracer::write(const std::string& path) const {
  std::vector<ibarb::obs::PhaseSpan> out;
  if (!stored_.empty()) {
    // Spans are stored as they close, so an enclosing span follows its
    // children: the origin is the earliest start, not the first stored.
    auto origin = stored_.front().t0;
    for (const auto& s : stored_) origin = std::min(origin, s.t0);
    const auto ns = [&](Clock::time_point t) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
              .count());
    };
    for (const auto& s : stored_) {
      std::string name = s.name;
      if (s.cycles > 0)
        name += " +" + std::to_string(s.cycles) + "cyc +" +
                std::to_string(s.events) + "ev";
      out.push_back({s.layer, std::move(name), ns(s.t0), ns(s.t1)});
    }
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  ibarb::obs::write_chrome_trace(os, ibarb::sim::PacketTrace{}, out);
}

void add_span_layers(Result& res, const Tracer& tracer,
                     std::size_t traced_repeats, const Args& args) {
  auto& L = res.per_layer;
  const auto self = tracer.self_seconds();
  const auto n =
      static_cast<double>(std::max<std::size_t>(1, traced_repeats));
  for (const char* layer :
       {"bench", "network", "subnet", "qos", "traffic", "sim"}) {
    const auto it = self.find(layer);
    L[std::string("self.") + layer + "_s"] = {
        it == self.end() ? 0.0 : it->second / n, "s"};
  }
  L["obs.spans"] = {static_cast<double>(tracer.recorded()), "count"};
  if (args.trace && !args.trace_out.empty()) tracer.write(args.trace_out);
}

}  // namespace perfbench
