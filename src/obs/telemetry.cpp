#include "obs/telemetry.hpp"

#include <algorithm>

#include "util/json_writer.hpp"

namespace ibarb::obs {

namespace {

void combine_gauge(std::pair<double, MergePolicy>& acc, double v,
                   MergePolicy policy) {
  switch (policy) {
    case MergePolicy::kSum:
      acc.first += v;
      break;
    case MergePolicy::kMax:
      acc.first = std::max(acc.first, v);
      break;
    case MergePolicy::kMin:
      acc.first = std::min(acc.first, v);
      break;
  }
}

}  // namespace

void Snapshot::add_counter(std::string_view name, std::uint64_t v) {
  auto it = counters.find(name);
  if (it == counters.end()) {
    counters.emplace(std::string(name), v);
  } else {
    it->second += v;
  }
}

void Snapshot::merge_gauge(std::string_view name, double v,
                           MergePolicy policy) {
  auto it = gauges.find(name);
  if (it == gauges.end()) {
    gauges.emplace(std::string(name), std::make_pair(v, policy));
  } else {
    combine_gauge(it->second, v, policy);
  }
}

void Snapshot::add_histogram(std::string_view name, const std::uint64_t* bins,
                             std::size_t n) {
  auto it = histograms.find(name);
  if (it == histograms.end()) {
    it = histograms.emplace(std::string(name),
                            std::vector<std::uint64_t>(n, 0)).first;
  }
  auto& acc = it->second;
  if (acc.size() < n) acc.resize(n, 0);
  // Saturating add: a merged overflow bucket must pin at UINT64_MAX, never
  // wrap to a small count that misreads as "almost nothing landed here".
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sum = acc[i] + bins[i];
    acc[i] = sum < acc[i] ? UINT64_MAX : sum;
  }
}

TelemetryRegistry::ProbeId TelemetryRegistry::add_probe(ProbeFn fn) {
  ProbeId id = next_probe_id_++;
  probes_.emplace_back(id, std::move(fn));
  return id;
}

void TelemetryRegistry::remove_probe(ProbeId id) {
  std::erase_if(probes_, [id](const auto& p) { return p.first == id; });
}

Snapshot TelemetryRegistry::snapshot() const {
  Snapshot s;
  for (const auto& [id, fn] : probes_) fn(s);
  return s;
}

Snapshot Snapshot::merge(const std::vector<Snapshot>& parts) {
  Snapshot out;
  for (const Snapshot& p : parts) {
    for (const auto& [name, v] : p.counters) out.add_counter(name, v);
    for (const auto& [name, gv] : p.gauges) {
      out.merge_gauge(name, gv.first, gv.second);
    }
    for (const auto& [name, bins] : p.histograms) {
      out.add_histogram(name, bins.data(), bins.size());
    }
  }
  return out;
}

void Snapshot::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, gv] : gauges) w.kv(name, gv.first);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, bins] : histograms) {
    w.key(name).begin_array();
    for (auto b : bins) w.value(b);
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

}  // namespace ibarb::obs
