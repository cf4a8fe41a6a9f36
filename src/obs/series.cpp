#include "obs/series.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "obs/telemetry.hpp"
#include "util/json_writer.hpp"

namespace ibarb::obs {

constinit thread_local std::size_t t_series_lane = 0;

bool is_quarantined_name(std::string_view name) noexcept {
  return name.rfind("profile.", 0) == 0 || name.rfind("shard.", 0) == 0;
}

namespace {

constexpr std::int64_t kNoMargin = std::numeric_limits<std::int64_t>::max();

double margin_or_nan(std::int64_t value, std::uint64_t count) {
  return count == 0 ? std::numeric_limits<double>::quiet_NaN()
                    : static_cast<double>(value);
}

}  // namespace

// --- Log2Histogram ----------------------------------------------------------

std::uint64_t Log2Histogram::total() const noexcept {
  std::uint64_t t = 0;
  for (const std::uint64_t b : buckets_) t += b;
  return t;
}

std::uint64_t Log2Histogram::percentile(double fraction) const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0;
  // Clamp before the cast: a rank of 2^64 or more (reached when n is near
  // UINT64_MAX) does not fit a uint64_t, and casting it is undefined.
  const double r = std::ceil(fraction * static_cast<double>(n));
  std::uint64_t rank = n;
  if (r < 1.0) {
    rank = 1;
  } else if (r < 0x1p64) {
    rank = std::min(static_cast<std::uint64_t>(r), n);
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(kBuckets - 1);
}

// --- SeriesTransition -------------------------------------------------------

const char* SeriesTransition::kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kLinkDown: return "link_down";
    case Kind::kLinkUp: return "link_up";
    case Kind::kSuspended: return "suspended";
    case Kind::kShed: return "shed";
    case Kind::kRestored: return "restored";
    case Kind::kRerouted: return "rerouted";
  }
  return "unknown";
}

// --- SeriesRecorder ---------------------------------------------------------

SeriesRecorder::SeriesRecorder(const TelemetryRegistry& registry,
                               const Config& cfg)
    : registry_(registry), cfg_(cfg) {
  // Decimation pairs adjacent windows, so an odd capacity could never drain
  // back below the cap; round up rather than surprise the caller.
  if (cfg_.capacity < 2) cfg_.capacity = 2;
  if (cfg_.capacity % 2 != 0) ++cfg_.capacity;
  window_cycles_ = cfg_.sample_every;
  next_due_ = cfg_.sample_every;  // 0 when disabled; advance_to never fires.
  lanes_.resize(1);
}

void SeriesRecorder::set_lanes(std::size_t n) {
  if (n < 1) n = 1;
  if (n > lanes_.size()) lanes_.resize(n);
}

void SeriesRecorder::note_connection(std::uint32_t conn, unsigned sl,
                                     bool qos, std::uint64_t deadline) {
  if (!enabled()) return;
  if (conn >= conns_.size()) {
    conns_.resize(conn + 1);
    cur_conn_.resize(conn + 1);
  }
  ConnSeries& s = conns_[conn];
  s.sl = sl;
  s.qos = qos;
  s.deadline = deadline;
  // Backfill committed windows so every connection column stays rectangular
  // even for flows added mid-run.
  const std::size_t committed = times_.size();
  s.rx.resize(committed, 0);
  s.late.resize(committed, 0);
  s.drops.resize(committed, 0);
  s.margin_min.resize(committed, kNoMargin);
  s.margin_sum.resize(committed, 0);
  s.margin_count.resize(committed, 0);
  cur_conn_[conn] = ConnWindow{};
}

void SeriesRecorder::record_delivery(std::uint32_t conn, unsigned sl,
                                     std::uint64_t delay,
                                     std::uint64_t contracted) {
  if (!enabled()) return;
  if (conn < cur_conn_.size()) {
    ConnWindow& w = cur_conn_[conn];
    ++w.rx;
    if (contracted > 0) {
      const auto margin = static_cast<std::int64_t>(contracted) -
                          static_cast<std::int64_t>(delay);
      if (margin < w.margin_min) w.margin_min = margin;
      w.margin_sum += margin;
      ++w.margin_count;
      if (delay > contracted) ++w.late;
    }
  }
  auto& lane = lanes_[t_series_lane < lanes_.size() ? t_series_lane : 0];
  SlWindow& s = lane[sl];
  s.hist.record(delay);
  ++s.rx;
  if (delay > s.max) s.max = delay;
}

void SeriesRecorder::record_drop(std::uint32_t conn) {
  if (!enabled()) return;
  if (conn < cur_conn_.size()) ++cur_conn_[conn].drops;
}

void SeriesRecorder::record_transition(std::uint64_t at,
                                       SeriesTransition::Kind kind,
                                       std::int64_t conn, std::int64_t node,
                                       std::int64_t port) {
  if (!enabled()) return;
  if (transitions_.size() >= cfg_.max_transitions) {
    ++transitions_dropped_;
    return;
  }
  transitions_.push_back(SeriesTransition{at, kind, conn, node, port});
}

void SeriesRecorder::advance_to(std::uint64_t limit) {
  if (!enabled()) return;
  while (next_due_ < limit) commit(next_due_);
}

void SeriesRecorder::commit(std::uint64_t boundary) {
  times_.push_back(boundary);
  const std::size_t windows = times_.size();

  // Registry sample: cumulative counters and point-in-time gauges. Columns
  // for names first seen now are backfilled with zeros; names that stop
  // publishing (a probe owner died mid-run) repeat their last value so the
  // series stays cumulative rather than collapsing to zero.
  const Snapshot snap = registry_.snapshot();
  for (const auto& [name, v] : snap.counters) {
    if (is_quarantined_name(name)) continue;
    auto& col = counter_cols_[name];
    col.resize(windows - 1, 0);
    col.push_back(v);
  }
  for (auto& [name, col] : counter_cols_) {
    if (col.size() < windows) col.push_back(col.empty() ? 0 : col.back());
  }
  for (const auto& [name, gv] : snap.gauges) {
    if (is_quarantined_name(name)) continue;
    auto& col = gauge_cols_[name];
    col.resize(windows - 1, 0.0);
    col.push_back(gv.first);
  }
  for (auto& [name, col] : gauge_cols_) {
    if (col.size() < windows) col.push_back(col.empty() ? 0.0 : col.back());
  }

  // Per-connection audit accumulators.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    ConnWindow& w = cur_conn_[i];
    ConnSeries& s = conns_[i];
    s.rx.push_back(w.rx);
    s.late.push_back(w.late);
    s.drops.push_back(w.drops);
    s.margin_min.push_back(w.margin_count == 0 ? kNoMargin : w.margin_min);
    s.margin_sum.push_back(w.margin_sum);
    s.margin_count.push_back(w.margin_count);
    w = ConnWindow{};
  }

  // Fold worker lanes into lane 0 in ascending (lane, SL) order. Each
  // per-SL merge is commutative and associative, so the folded windows are
  // byte-identical to what a single-lane recording of the same deliveries
  // would hold regardless of how deliveries were spread across lanes.
  auto& cur_sl = lanes_[0];
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    for (auto& [sl, w] : lanes_[l]) {
      SlWindow& into = cur_sl[sl];
      into.hist.merge(w.hist);
      into.rx += w.rx;
      if (w.max > into.max) into.max = w.max;
    }
    lanes_[l].clear();
  }

  // Per-SL delay windows (sparse: only SLs that delivered traffic).
  for (auto& [sl, w] : cur_sl) {
    SlSeries& s = sls_[sl];
    s.hist.resize(windows - 1);
    s.rx.resize(windows - 1, 0);
    s.max.resize(windows - 1, 0);
    s.hist.push_back(w.hist);
    s.rx.push_back(w.rx);
    s.max.push_back(w.max);
  }
  for (auto& [sl, s] : sls_) {
    if (s.hist.size() < windows) {
      s.hist.emplace_back();
      s.rx.push_back(0);
      s.max.push_back(0);
    }
  }
  cur_sl.clear();

  if (times_.size() == cfg_.capacity) {
    decimate();
    window_cycles_ *= 2;
    ++decimations_;
  }
  next_due_ = boundary + window_cycles_;
}

void SeriesRecorder::decimate() {
  const std::size_t half = times_.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const std::size_t a = 2 * i, b = 2 * i + 1;
    times_[i] = times_[b];
    for (auto& [name, col] : counter_cols_) col[i] = col[b];
    for (auto& [name, col] : gauge_cols_) col[i] = col[b];
    for (ConnSeries& s : conns_) {
      s.rx[i] = s.rx[a] + s.rx[b];
      s.late[i] = s.late[a] + s.late[b];
      s.drops[i] = s.drops[a] + s.drops[b];
      s.margin_min[i] = std::min(s.margin_min[a], s.margin_min[b]);
      s.margin_sum[i] = s.margin_sum[a] + s.margin_sum[b];
      s.margin_count[i] = s.margin_count[a] + s.margin_count[b];
    }
    for (auto& [sl, s] : sls_) {
      Log2Histogram merged = s.hist[a];
      merged.merge(s.hist[b]);
      s.hist[i] = merged;
      s.rx[i] = s.rx[a] + s.rx[b];
      s.max[i] = std::max(s.max[a], s.max[b]);
    }
  }
  times_.resize(half);
  for (auto& [name, col] : counter_cols_) col.resize(half);
  for (auto& [name, col] : gauge_cols_) col.resize(half);
  for (ConnSeries& s : conns_) {
    s.rx.resize(half);
    s.late.resize(half);
    s.drops.resize(half);
    s.margin_min.resize(half);
    s.margin_sum.resize(half);
    s.margin_count.resize(half);
  }
  for (auto& [sl, s] : sls_) {
    s.hist.resize(half);
    s.rx.resize(half);
    s.max.resize(half);
  }
}

SeriesData SeriesRecorder::finalize(std::uint64_t end_time) {
  SeriesData d;
  d.sample_every = cfg_.sample_every;
  if (!enabled()) return d;

  if (!flushed_partial_) {
    // Commit every whole boundary at or before end_time, then one trailing
    // partial window if the run ended between boundaries. The flush flag
    // keeps finalize idempotent.
    advance_to(end_time + 1);
    if (end_time > 0 && (times_.empty() || times_.back() < end_time)) {
      commit(end_time);
    }
    flushed_partial_ = true;
  }

  d.window_cycles = window_cycles_;
  d.decimations = decimations_;
  d.time = times_;
  const std::size_t windows = times_.size();

  d.counters.reserve(counter_cols_.size());
  for (const auto& [name, col] : counter_cols_) d.counters.emplace_back(name, col);
  d.gauges.reserve(gauge_cols_.size());
  for (const auto& [name, col] : gauge_cols_) d.gauges.emplace_back(name, col);

  d.qos.missed.assign(windows, 0);
  d.qos.late.assign(windows, 0);
  d.qos.drops.assign(windows, 0);

  d.connections.reserve(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const ConnSeries& s = conns_[i];
    SeriesData::Connection c;
    c.conn = static_cast<std::uint32_t>(i);
    c.sl = s.sl;
    c.qos = s.qos;
    c.deadline = s.deadline;
    c.rx = s.rx;
    c.late = s.late;
    c.drops = s.drops;
    const bool audited = s.qos && s.deadline > 0;
    c.missed.resize(windows, 0);
    c.margin_min.resize(windows);
    c.margin_mean.resize(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      if (audited) {
        c.missed[w] = s.late[w] + s.drops[w];
        d.qos.missed[w] += c.missed[w];
        d.qos.late[w] += s.late[w];
        d.qos.drops[w] += s.drops[w];
      }
      c.margin_min[w] = margin_or_nan(s.margin_min[w], s.margin_count[w]);
      c.margin_mean[w] =
          s.margin_count[w] == 0
              ? std::numeric_limits<double>::quiet_NaN()
              : static_cast<double>(s.margin_sum[w]) /
                    static_cast<double>(s.margin_count[w]);
    }
    d.connections.push_back(std::move(c));
  }

  d.sl_delay.reserve(sls_.size());
  for (const auto& [sl, s] : sls_) {
    SeriesData::SlDelay row;
    row.sl = sl;
    row.rx = s.rx;
    row.max = s.max;
    row.p50.resize(windows);
    row.p99.resize(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      row.p50[w] = s.hist[w].percentile(0.50);
      row.p99[w] = s.hist[w].percentile(0.99);
    }
    d.sl_delay.push_back(std::move(row));
  }

  d.transitions = transitions_;
  d.transitions_dropped = transitions_dropped_;
  return d;
}

// --- SeriesData emission ----------------------------------------------------

namespace {

template <typename T>
void write_array(util::JsonWriter& w, const std::vector<T>& values) {
  w.begin_array();
  for (const T& v : values) w.value(v);
  w.end_array();
}

}  // namespace

void SeriesData::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.kv("sample_every", sample_every);
  w.kv("window_cycles", window_cycles);
  w.kv("decimations", decimations);
  w.kv("windows", static_cast<std::uint64_t>(time.size()));
  w.key("time");
  write_array(w, time);

  w.key("counters").begin_object();
  for (const auto& [name, col] : counters) {
    w.key(name);
    write_array(w, col);
  }
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, col] : gauges) {
    w.key(name);
    write_array(w, col);
  }
  w.end_object();

  w.key("qos").begin_object();
  w.key("missed");
  write_array(w, qos.missed);
  w.key("late");
  write_array(w, qos.late);
  w.key("drops");
  write_array(w, qos.drops);
  w.end_object();

  w.key("sl_delay").begin_array();
  for (const SlDelay& row : sl_delay) {
    w.begin_object();
    w.kv("sl", row.sl);
    w.key("rx");
    write_array(w, row.rx);
    w.key("p50");
    write_array(w, row.p50);
    w.key("p99");
    write_array(w, row.p99);
    w.key("max");
    write_array(w, row.max);
    w.end_object();
  }
  w.end_array();

  w.key("connections").begin_array();
  for (const Connection& c : connections) {
    w.begin_object();
    w.kv("conn", c.conn);
    w.kv("sl", c.sl);
    w.kv("qos", c.qos);
    w.kv("deadline", c.deadline);
    w.key("rx");
    write_array(w, c.rx);
    w.key("late");
    write_array(w, c.late);
    w.key("drops");
    write_array(w, c.drops);
    w.key("missed");
    write_array(w, c.missed);
    w.key("margin_min");
    write_array(w, c.margin_min);
    w.key("margin_mean");
    write_array(w, c.margin_mean);
    w.end_object();
  }
  w.end_array();

  w.key("transitions").begin_array();
  for (const SeriesTransition& t : transitions) {
    w.begin_object();
    w.kv("at", t.at);
    w.kv("kind", SeriesTransition::kind_name(t.kind));
    w.kv("conn", t.conn);
    w.kv("node", t.node);
    w.kv("port", t.port);
    w.end_object();
  }
  w.end_array();
  w.kv("transitions_dropped", transitions_dropped);
  w.end_object();
}

// --- CSV export -------------------------------------------------------------

namespace {

// Same shortest-round-trip formatting as JsonWriter; NaN becomes an empty
// cell so spreadsheets do not choke on it.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) return;
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

bool open_csv(std::ofstream& os, const std::filesystem::path& p) {
  os.open(p, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "series-csv: cannot open %s for writing\n",
                 p.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

bool write_series_csv(const SeriesData& data, const std::string& dir) {
  std::error_code ec;
  const std::filesystem::path root(dir);
  std::filesystem::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "series-csv: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }

  const std::size_t windows = data.time.size();
  std::string line;

  {
    std::ofstream os;
    if (!open_csv(os, root / "samples.csv")) return false;
    line = "time";
    for (const auto& [name, col] : data.counters) line += "," + name;
    for (const auto& [name, col] : data.gauges) line += "," + name;
    line += ",qos.missed,qos.late,qos.drops\n";
    os << line;
    for (std::size_t w = 0; w < windows; ++w) {
      line = std::to_string(data.time[w]);
      for (const auto& [name, col] : data.counters) {
        line += ",";
        line += std::to_string(col[w]);
      }
      for (const auto& [name, col] : data.gauges) {
        line += ",";
        append_double(line, col[w]);
      }
      line += "," + std::to_string(data.qos.missed[w]);
      line += "," + std::to_string(data.qos.late[w]);
      line += "," + std::to_string(data.qos.drops[w]);
      line += "\n";
      os << line;
    }
    if (!os) return false;
  }

  {
    std::ofstream os;
    if (!open_csv(os, root / "sl_delay.csv")) return false;
    os << "time,sl,rx,p50,p99,max\n";
    for (const auto& row : data.sl_delay) {
      for (std::size_t w = 0; w < windows; ++w) {
        os << data.time[w] << ',' << row.sl << ',' << row.rx[w] << ','
           << row.p50[w] << ',' << row.p99[w] << ',' << row.max[w] << '\n';
      }
    }
    if (!os) return false;
  }

  {
    std::ofstream os;
    if (!open_csv(os, root / "connections.csv")) return false;
    os << "time,conn,sl,qos,deadline,rx,late,drops,missed,margin_min,"
          "margin_mean\n";
    for (const auto& c : data.connections) {
      for (std::size_t w = 0; w < windows; ++w) {
        line = std::to_string(data.time[w]);
        line += "," + std::to_string(c.conn);
        line += "," + std::to_string(c.sl);
        line += c.qos ? ",1" : ",0";
        line += "," + std::to_string(c.deadline);
        line += "," + std::to_string(c.rx[w]);
        line += "," + std::to_string(c.late[w]);
        line += "," + std::to_string(c.drops[w]);
        line += "," + std::to_string(c.missed[w]);
        line += ",";
        append_double(line, c.margin_min[w]);
        line += ",";
        append_double(line, c.margin_mean[w]);
        line += "\n";
        os << line;
      }
    }
    if (!os) return false;
  }

  {
    std::ofstream os;
    if (!open_csv(os, root / "transitions.csv")) return false;
    os << "at,kind,conn,node,port\n";
    for (const auto& t : data.transitions) {
      os << t.at << ',' << SeriesTransition::kind_name(t.kind) << ','
         << t.conn << ',' << t.node << ',' << t.port << '\n';
    }
    if (!os) return false;
  }

  return true;
}

}  // namespace ibarb::obs
