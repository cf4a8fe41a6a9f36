#include "faults/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace ibarb::faults {

namespace {

// Severity of each random-storm fault kind (FaultPlan::random_storm).
constexpr double kStormCorruptProbability = 0.05;
constexpr double kStormDropProbability = 0.02;
constexpr double kStormSlowFactor = 4.0;
constexpr double kStormOverloadFactor = 8.0;

/// Every token handed around during parsing is a substring view of the
/// original spec, so pointer arithmetic recovers the exact character offset
/// of the offending token — the error names both.
[[noreturn]] void bad_spec(std::string_view spec, std::string_view token,
                           const char* why) {
  std::string msg = "bad fault spec: ";
  msg += why;
  if (token.data() >= spec.data() &&
      token.data() <= spec.data() + spec.size()) {
    msg += " at offset ";
    msg += std::to_string(token.data() - spec.data());
  }
  msg += ": '";
  msg += token;
  msg += "' (in '";
  msg += spec;
  msg += "')";
  throw std::invalid_argument(msg);
}

std::uint64_t parse_u64(std::string_view s, std::string_view spec) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size())
    bad_spec(spec, s, "expected an unsigned integer");
  return v;
}

/// An unsigned integer that must fit its field: no silent narrowing.
template <typename T>
T parse_field(std::string_view s, std::string_view spec, const char* why) {
  const std::uint64_t v = parse_u64(s, spec);
  if (v > std::numeric_limits<T>::max()) bad_spec(spec, s, why);
  return static_cast<T>(v);
}

double parse_double(std::string_view s, std::string_view spec) {
  // std::from_chars for doubles is missing on some libstdc++ versions the
  // CI matrix uses; stod on a bounded copy is fine off the hot path. The
  // checks stay outside the try, whose handlers would rename their errors.
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(std::string(s), &used);
  } catch (const std::invalid_argument&) {
    bad_spec(spec, s, "expected a number");
  } catch (const std::out_of_range&) {
    bad_spec(spec, s, "number out of range");
  }
  if (used != s.size()) bad_spec(spec, s, "trailing characters in number");
  if (!std::isfinite(v)) bad_spec(spec, s, "number must be finite");
  return v;
}

FaultKind kind_from(std::string_view name, std::string_view spec) {
  if (name == "linkflap") return FaultKind::kLinkFlap;
  if (name == "corrupt") return FaultKind::kCorrupt;
  if (name == "drop") return FaultKind::kDrop;
  if (name == "stuck") return FaultKind::kStuck;
  if (name == "slow") return FaultKind::kSlow;
  if (name == "overload") return FaultKind::kOverload;
  bad_spec(spec, name, "unknown fault kind");
}

bool has_value_field(FaultKind kind) {
  return kind == FaultKind::kCorrupt || kind == FaultKind::kDrop ||
         kind == FaultKind::kSlow || kind == FaultKind::kOverload;
}

FaultEvent parse_event(std::string_view item, std::string_view spec) {
  FaultEvent ev;
  const auto at_pos = item.find('@');
  if (at_pos == std::string_view::npos) bad_spec(spec, item, "missing '@'");
  ev.kind = kind_from(item.substr(0, at_pos), spec);
  item.remove_prefix(at_pos + 1);

  // at[+duration]
  auto colon = item.find(':');
  if (colon == std::string_view::npos) bad_spec(spec, item, "missing target");
  auto when = item.substr(0, colon);
  item.remove_prefix(colon + 1);
  const auto when_all = when;
  if (const auto plus = when.find('+'); plus != std::string_view::npos) {
    ev.duration = parse_u64(when.substr(plus + 1), spec);
    when = when.substr(0, plus);
  }
  ev.at = parse_u64(when, spec);
  if (ev.duration > std::numeric_limits<iba::Cycle>::max() - ev.at)
    bad_spec(spec, when_all, "at + duration overflows the cycle counter");

  // target [':' value]
  auto target = item;
  colon = item.find(':');
  std::string_view value;
  if (colon != std::string_view::npos) {
    target = item.substr(0, colon);
    value = item.substr(colon + 1);
  }
  if (ev.kind == FaultKind::kOverload) {
    if (target.empty() || target.front() != 'f')
      bad_spec(spec, target, "overload target must be fN");
    ev.flow = parse_field<std::uint32_t>(target.substr(1), spec,
                                         "flow index out of range");
  } else {
    const auto dot = target.find('.');
    if (dot == std::string_view::npos)
      bad_spec(spec, target, "port target must be node.port");
    ev.node = parse_field<iba::NodeId>(target.substr(0, dot), spec,
                                       "node id out of range");
    ev.port = parse_field<iba::PortIndex>(target.substr(dot + 1), spec,
                                          "port index out of range");
  }
  if (has_value_field(ev.kind)) {
    if (value.empty())
      bad_spec(spec, target, "missing probability/factor value");
    const double v = parse_double(value, spec);
    if (ev.kind == FaultKind::kCorrupt || ev.kind == FaultKind::kDrop) {
      if (v < 0.0 || v > 1.0)
        bad_spec(spec, value, "probability outside [0, 1]");
      ev.probability = v;
    } else {
      // Below 1 a slowdown never shortens a transmission, so it would do
      // nothing, and an overload would throttle its source instead; a tiny
      // one stretches the generator interval past Cycle's range.
      if (v < 1.0) bad_spec(spec, value, "factor must be at least 1");
      ev.factor = v;
    }
  } else if (!value.empty()) {
    bad_spec(spec, value, "unexpected value field");
  }
  return ev;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap: return "linkflap";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kStuck: return "stuck";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kOverload: return "overload";
  }
  return "?";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

void FaultPlan::merge(const FaultPlan& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  std::vector<FaultEvent> events;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto sep = rest.find_first_of(";,");
    const auto item = rest.substr(0, sep);
    rest = sep == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sep + 1);
    if (item.empty()) continue;
    events.push_back(parse_event(item, spec));
  }
  return FaultPlan(std::move(events));
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& ev : events_) {
    if (!first) os << ';';
    first = false;
    os << to_string(ev.kind) << '@' << ev.at;
    if (ev.duration > 0) os << '+' << ev.duration;
    if (ev.kind == FaultKind::kOverload) {
      os << ":f" << ev.flow;
    } else {
      os << ':' << ev.node << '.' << unsigned(ev.port);
    }
    if (ev.kind == FaultKind::kCorrupt || ev.kind == FaultKind::kDrop) {
      os << ':' << ev.probability;
    } else if (ev.kind == FaultKind::kSlow ||
               ev.kind == FaultKind::kOverload) {
      os << ':' << ev.factor;
    }
  }
  return os.str();
}

FaultPlan FaultPlan::random_storm(const network::FabricGraph& graph,
                                  const StormConfig& cfg) {
  util::Xoshiro256 rng(cfg.seed ^ 0xfa171u);
  std::vector<FaultEvent> events;

  // Candidate targets: switch-side ports of switch-switch links (canonical
  // end only, so a link appears once) for route-around faults; any such
  // port (either end) for corruption/drop windows.
  std::vector<network::PortRef> trunk_ports;
  for (const auto sw : graph.switches()) {
    for (unsigned p = 0; p < graph.port_count(sw); ++p) {
      const auto peer = graph.peer(sw, static_cast<iba::PortIndex>(p));
      if (!peer || !graph.is_switch(peer->node)) continue;
      if (peer->node < sw || (peer->node == sw && peer->port < p)) continue;
      trunk_ports.push_back({sw, static_cast<iba::PortIndex>(p)});
    }
  }
  if (trunk_ports.empty()) return FaultPlan(std::move(events));

  // Route-around faults get disjoint slots of the storm window: at most one
  // degraded link at any time, with the last quarter of each slot left
  // fault-free so recovery (re-sweep + re-admission) completes in-slot.
  const unsigned route_around =
      cfg.link_flaps + cfg.stuck_ports + cfg.slow_ports;
  const iba::Cycle slot =
      route_around > 0 ? cfg.length / route_around : cfg.length;
  unsigned slot_index = 0;
  const auto slotted = [&](FaultKind kind, double factor) {
    FaultEvent ev;
    ev.kind = kind;
    const iba::Cycle slot_start = cfg.start + slot_index * slot;
    ++slot_index;
    const iba::Cycle margin = slot / 8;
    ev.at = slot_start + margin + rng.below(std::max<iba::Cycle>(1, slot / 8));
    ev.duration =
        std::max<iba::Cycle>(1, slot / 4 + rng.below(std::max<iba::Cycle>(
                                               1, slot / 4)));
    const auto& target = trunk_ports[rng.below(trunk_ports.size())];
    ev.node = target.node;
    ev.port = target.port;
    ev.factor = factor;
    events.push_back(ev);
  };
  for (unsigned i = 0; i < cfg.link_flaps; ++i)
    slotted(FaultKind::kLinkFlap, 1.0);
  for (unsigned i = 0; i < cfg.stuck_ports; ++i)
    slotted(FaultKind::kStuck, 1.0);
  for (unsigned i = 0; i < cfg.slow_ports; ++i)
    slotted(FaultKind::kSlow, kStormSlowFactor);

  const auto windowed = [&](FaultKind kind, double probability) {
    FaultEvent ev;
    ev.kind = kind;
    ev.at = cfg.start + rng.below(std::max<iba::Cycle>(1, cfg.length / 2));
    ev.duration = std::max<iba::Cycle>(
        1, cfg.length / 8 + rng.below(std::max<iba::Cycle>(1, cfg.length / 8)));
    const auto& anchor = trunk_ports[rng.below(trunk_ports.size())];
    // Either end of the chosen trunk link may be the sick receiver.
    if (rng.chance(0.5)) {
      ev.node = anchor.node;
      ev.port = anchor.port;
    } else {
      const auto peer = graph.peer(anchor.node, anchor.port);
      ev.node = peer->node;
      ev.port = peer->port;
    }
    ev.probability = probability;
    events.push_back(ev);
  };
  for (unsigned i = 0; i < cfg.corrupt_windows; ++i)
    windowed(FaultKind::kCorrupt, kStormCorruptProbability);
  for (unsigned i = 0; i < cfg.drop_windows; ++i)
    windowed(FaultKind::kDrop, kStormDropProbability);

  if (cfg.flows > 0) {
    for (unsigned i = 0; i < cfg.overload_bursts; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kOverload;
      ev.at = cfg.start + rng.below(std::max<iba::Cycle>(1, cfg.length / 2));
      ev.duration = std::max<iba::Cycle>(
          1, cfg.length / 6 +
                 rng.below(std::max<iba::Cycle>(1, cfg.length / 6)));
      ev.flow = cfg.first_flow +
                static_cast<std::uint32_t>(rng.below(cfg.flows));
      ev.factor = kStormOverloadFactor;
      events.push_back(ev);
    }
  }
  return FaultPlan(std::move(events));
}

}  // namespace ibarb::faults
