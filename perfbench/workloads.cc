#include "workloads.h"

#include <cmath>
#include <map>
#include <set>

#include "util/string_util.h"
#include "workload/generators.h"

namespace dcbench {
namespace {

using dc::Bat;
using dc::StrFormat;

// Phase shares of a run's --seconds (README.md, "Run anatomy"). A run is
// kCycles cycles of (kRepsPerCycle pairs of one closed-loop and one
// synchronous repetition, then one open-loop segment), so every metric
// samples the whole run: the host runs a thread up to 1.5x faster or
// slower for a second or two at a time. Setup, recovery and the reference
// computation come on top.
constexpr int kCycles = 8;
constexpr double kOpenLoopShare = 0.50;
constexpr double kClosedLoopShare = 0.25;
constexpr double kSyncShare = 0.25;
constexpr int kRepsPerCycle = 2;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashDouble(double v) {
  if (v == 0.0 || !std::isfinite(v)) return Mix64(0x5eed);
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // |mant| in [0.5, 1)
  const int64_t q = std::llround(mant * (1 << 20));
  return Mix64(static_cast<uint64_t>(q) * 0x9e3779b97f4a7c15ULL ^
               static_cast<uint64_t>(static_cast<int64_t>(exp)));
}

uint64_t HashCell(const Bat& col, uint64_t row) {
  if (col.IsNull(row)) return 0x6e756c6cULL;
  switch (col.type()) {
    case dc::TypeId::kF64:
      return HashDouble(col.F64Data()[row]);
    case dc::TypeId::kStr: {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (char c : col.StrAt(row)) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
      return h;
    }
    case dc::TypeId::kBool:
      return col.BoolData()[row] ? 1 : 2;
    default:
      return Mix64(static_cast<uint64_t>(col.I64Data()[row]));
  }
}

uint64_t AddCell(uint64_t h, uint64_t cell) {
  return Mix64(h ^ (cell + 0x9e3779b97f4a7c15ULL + (h << 6)));
}

/// Linear Road lite replayed at a fixed speed-up: one tick per simulated
/// second, so the 10 s slide is 10 ticks of wall time. kLrXways
/// expressways of kLrVehicles vehicles each; twelve expressways give a
/// 20 s run 1 008 emissions, enough to support a p99. Each
/// expressway's replay starts a few ticks after the previous one's, so
/// their windows close on different ticks (README.md, "Workloads").
constexpr int kLrSpeedup = 50;
constexpr int kLrXways = 12;
constexpr int kLrVehicles = 200;
// Closed-loop and synchronous throughput measured on a 4-vCPU VM, used only
// to size those phases (never to pick the open-loop rate).
constexpr double kLrClosedRowsPerSec = 3.1e6;
constexpr double kLrSyncRowsPerSec = 2.3e6;

/// Network monitoring: Zipf packets at 125 k rows/s, 625 a tick.
constexpr double kNetRowsPerSec = 125000;
constexpr Micros kNetTickUs = 5000;
constexpr double kNetClosedRowsPerSec = 0.95e6;
constexpr double kNetSyncRowsPerSec = 0.75e6;

/// Online analytics: two packet streams, each at this rate.
constexpr double kOaRowsPerSecPerStream = 250000;
constexpr Micros kOaTickUs = 5000;
constexpr double kOaClosedRowsPerSec = 2.2e6;
constexpr double kOaSyncRowsPerSec = 1.6e6;
constexpr int64_t kOaHosts = 20000;

void SizePhases(double seconds, double closed_rows_s, double sync_rows_s,
                Workload* w) {
  const uint64_t rows_per_tick = w->RowsPerTick();
  w->cycles = kCycles;
  w->open_loop_ticks = static_cast<size_t>(
      seconds * kOpenLoopShare * 1e6 / kCycles /
      static_cast<double>(w->tick_us));
  auto ticks_for = [&](double rows_s, double share) {
    const double rows = rows_s * seconds * share / (kRepsPerCycle * kCycles);
    return std::max<size_t>(
        1, static_cast<size_t>(rows / static_cast<double>(rows_per_tick)));
  };
  w->reps = kRepsPerCycle;
  w->closed_loop_ticks = ticks_for(closed_rows_s, kClosedLoopShare);
  w->sync_ticks = ticks_for(sync_rows_s, kSyncShare);
}

}  // namespace

uint64_t Workload::RowsInTicks(size_t ticks) const {
  uint64_t rows = 0;
  for (size_t s = 0; s < streams.size(); ++s) rows += StreamRowsInTicks(s, ticks);
  return rows;
}

uint64_t Workload::StreamRowsInTicks(size_t stream, size_t ticks) const {
  uint64_t rows = 0;
  for (size_t t = 0; t < ticks; ++t) {
    if (const auto* batch = streams[stream].BatchAt(t)) rows += (*batch)[0]->size();
  }
  return rows;
}

uint64_t Workload::RowsPerTick() const {
  uint64_t rows = 0;
  for (const StreamInput& s : streams) rows += s.batches[0][0]->size();
  return rows;
}

double Workload::OpenLoopRowsPerSec() const {
  return static_cast<double>(RowsPerTick()) * 1e6 /
         static_cast<double>(tick_us);
}

uint64_t IntRowHash(const std::vector<int64_t>& row) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (int64_t v : row) h = AddCell(h, Mix64(static_cast<uint64_t>(v)));
  return h;
}

uint64_t CombineRows(uint64_t sum_of_row_hashes, uint64_t rows) {
  return Mix64(sum_of_row_hashes ^ Mix64(rows + 1));
}

uint64_t Checksum(const dc::ColumnSet& cs, size_t ncols) {
  const size_t nc = ncols == 0 ? cs.cols.size()
                               : std::min(ncols, cs.cols.size());
  const uint64_t n = cs.NumRows();
  uint64_t sum = 0;
  for (uint64_t r = 0; r < n; ++r) {
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (size_t c = 0; c < nc; ++c) h = AddCell(h, HashCell(*cs.cols[c], r));
    sum += h;
  }
  return CombineRows(sum, n);
}

namespace {

/// Linear Road position reports, one batch per simulated second.
StreamInput LrStream(const std::string& name,
                     const dc::workload::LrConfig& config) {
  StreamInput s;
  s.name = name;
  dc::workload::LinearRoadGenerator gen(config);
  const size_t per_sec =
      static_cast<size_t>(config.xways) * config.vehicles_per_xway;
  std::vector<dc::Value> row;
  for (int sec = 0; sec < config.duration_sec; ++sec) {
    std::vector<int64_t> ts, vid, xway, dir, seg;
    std::vector<double> speed;
    for (size_t i = 0; i < per_sec && gen.NextRow(&row); ++i) {
      ts.push_back(row[0].AsI64());
      vid.push_back(row[1].AsI64());
      speed.push_back(row[2].AsF64());
      xway.push_back(row[3].AsI64());
      dir.push_back(row[4].AsI64());
      seg.push_back(row[5].AsI64());
    }
    s.max_ts.push_back(ts.back());
    s.batches.push_back({Bat::MakeTs(std::move(ts)),
                         Bat::MakeI64(std::move(vid)),
                         Bat::MakeF64(std::move(speed)),
                         Bat::MakeI64(std::move(xway)),
                         Bat::MakeI64(std::move(dir)),
                         Bat::MakeI64(std::move(seg))});
  }
  return s;
}

/// Packets whose event time is the open-loop send schedule: `per_tick`
/// rows per tick of `tick_us`.
StreamInput PacketStream(const std::string& name, uint64_t seed,
                         size_t ticks, uint64_t per_tick, Micros tick_us) {
  StreamInput s;
  s.name = name;
  dc::workload::PacketConfig config;
  config.seed = seed;
  config.ts_step = tick_us / static_cast<Micros>(per_tick);
  for (size_t t = 0; t < ticks; ++t) {
    s.batches.push_back(
        dc::workload::PacketBatch(config, t * per_tick, per_tick));
    s.max_ts.push_back(s.batches.back()[0]->I64Data().back());
  }
  return s;
}

void MakeLr(uint64_t seed, double seconds, Workload* w) {
  w->tick_us = 1000000 / kLrSpeedup;
  w->latency_limit_us = 5 * 1000000 / kLrSpeedup;
  // One position stream per expressway, as Linear Road partitions by
  // expressway; each carries the SetupLrQueries pair.
  for (int x = 0; x < kLrXways; ++x) {
    dc::workload::LrConfig c;
    c.xways = 1;
    c.vehicles_per_xway = kLrVehicles;
    c.seed = seed * kLrXways + static_cast<uint64_t>(x);
    c.stop_prob = 0.003;
    c.duration_sec = 1;  // sized below
    w->lr.push_back(c);
  }
  auto generate = [w] {
    w->streams.clear();
    for (size_t x = 0; x < w->lr.size(); ++x) {
      w->streams.push_back(LrStream(StrFormat("pos%zu", x), w->lr[x]));
      w->streams.back().tick_offset = x * 10 / w->lr.size();
    }
  };
  generate();
  SizePhases(seconds, kLrClosedRowsPerSec, kLrSyncRowsPerSec, w);
  for (auto& c : w->lr) {
    c.duration_sec = static_cast<int>(std::max(
        {w->open_loop_ticks, w->closed_loop_ticks, w->sync_ticks}));
  }
  generate();
  for (size_t x = 0; x < w->lr.size(); ++x) {
    const std::string pos = w->streams[x].name;
    w->ddl.push_back(dc::workload::LrPositionDdl(pos));
    w->queries.push_back(
        {StrFormat("lr_segstats_%zu", x),
         StrFormat("SELECT xway, dir, seg, avg(speed) AS avg_speed, "
                   "count(*) AS reports "
                   "FROM %s [RANGE 60 SECONDS SLIDE 10 SECONDS] "
                   "GROUP BY xway, dir, seg",
                   pos.c_str()),
         10 * 1000000, {static_cast<int>(x)}, false});
    w->queries.push_back(
        {StrFormat("lr_accidents_%zu", x),
         StrFormat("SELECT xway, dir, seg, count(*) AS stopped_reports "
                   "FROM %s [RANGE 30 SECONDS SLIDE 10 SECONDS] "
                   "WHERE speed = 0.0 GROUP BY xway, dir, seg "
                   "HAVING count(*) >= %d ORDER BY xway, dir, seg",
                   pos.c_str(), dc::workload::kLrAccidentReports),
         10 * 1000000, {static_cast<int>(x)}, true});
  }
}

void MakeNetmon(uint64_t seed, double seconds, Workload* w) {
  w->tick_us = kNetTickUs;
  w->durable = true;
  const auto per_tick = static_cast<uint64_t>(
      kNetRowsPerSec * static_cast<double>(kNetTickUs) / 1e6);
  w->streams = {PacketStream("pkts", seed, 1, per_tick, kNetTickUs)};
  SizePhases(seconds, kNetClosedRowsPerSec, kNetSyncRowsPerSec, w);
  w->streams = {PacketStream(
      "pkts", seed,
      std::max({w->open_loop_ticks, w->closed_loop_ticks, w->sync_ticks}),
      per_tick, kNetTickUs)};
  w->checkpoint_every_ticks = static_cast<size_t>(1000000 / kNetTickUs);
  w->ddl = {dc::workload::PacketDdl("pkts")};
  const std::string win = "[RANGE 500 MILLISECONDS SLIDE 100 MILLISECONDS]";
  const Micros slide = 100000;
  w->latency_limit_us = 1000000;
  // Tier P: one shared GROUP BY port prefix, ten HAVING constants.
  for (int i = 0; i < 10; ++i) {
    w->queries.push_back(
        {StrFormat("port_having_%d", i),
         StrFormat("SELECT port, count(*) AS pkts, sum(bytes) AS bytes "
                   "FROM pkts %s GROUP BY port HAVING count(*) > %d",
                   win.c_str(), i * 1200),
         slide, {0}, false});
  }
  // Coarser slide on the same grid (subsumption).
  w->queries.push_back(
      {"port_coarse",
       "SELECT port, count(*) AS pkts, sum(bytes) AS bytes FROM pkts "
       "[RANGE 600 MILLISECONDS SLIDE 200 MILLISECONDS] GROUP BY port",
       200000, {0}, false});
  // Tier F: an identical pair aliasing one factory.
  for (int i = 0; i < 2; ++i) {
    w->queries.push_back(
        {StrFormat("big_flows_%d", i),
         "SELECT count(*) AS pkts, sum(bytes) AS bytes FROM pkts "
         "[RANGE 500 MILLISECONDS SLIDE 100 MILLISECONDS] WHERE bytes > 1200",
         slide, {0}, false});
  }
  // Per-destination-port maximum (own prefix).
  w->queries.push_back(
      {"port_max",
       StrFormat("SELECT port, max(bytes) AS max_bytes, min(bytes) AS "
                 "min_bytes FROM pkts %s GROUP BY port",
                 win.c_str()),
       slide, {0}, false});
  // High-cardinality GROUP BY src over the Zipf hosts.
  w->queries.push_back(
      {"src_heavy",
       StrFormat("SELECT src, count(*) AS pkts, sum(bytes) AS bytes "
                 "FROM pkts %s GROUP BY src",
                 win.c_str()),
       slide, {0}, false});
  w->queries.push_back(
      {"dst_fanin",
       StrFormat("SELECT dst, count(*) AS pkts FROM pkts %s "
                 "WHERE port = 22 GROUP BY dst HAVING count(*) > 2",
                 win.c_str()),
       slide, {0}, false});
}

void MakeOnlineAnalytics(uint64_t seed, double seconds, Workload* w) {
  w->tick_us = kOaTickUs;
  w->latency_limit_us = 1000000;
  const auto per_tick = static_cast<uint64_t>(
      kOaRowsPerSecPerStream * static_cast<double>(kOaTickUs) / 1e6);
  w->streams = {PacketStream("flows_a", seed, 1, per_tick, kOaTickUs),
                PacketStream("flows_b", seed ^ 0x5bd1e995, 1, per_tick,
                             kOaTickUs)};
  SizePhases(seconds, kOaClosedRowsPerSec, kOaSyncRowsPerSec, w);
  const size_t ticks =
      std::max({w->open_loop_ticks, w->closed_loop_ticks, w->sync_ticks});
  w->streams = {PacketStream("flows_a", seed, ticks, per_tick, kOaTickUs),
                PacketStream("flows_b", seed ^ 0x5bd1e995, ticks, per_tick,
                             kOaTickUs)};
  w->ddl = {dc::workload::PacketDdl("flows_a"),
            dc::workload::PacketDdl("flows_b"),
            "CREATE TABLE hosts (ip int, asn int, region int)"};
  // The host table: every address the packet generator draws, with an
  // AS number and a region derived from the seed.
  std::vector<int64_t> ip, asn, region;
  std::map<int64_t, int64_t> small_ip_asns;  // asn -> hosts with ip < 500
  std::set<int64_t> asns;
  for (int64_t h = 0; h < kOaHosts; ++h) {
    ip.push_back(h);
    const auto a = static_cast<int64_t>(
        Mix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(h)) % 97);
    asn.push_back(a);
    asns.insert(a);
    region.push_back(h % 7);
    if (h < 500) small_ip_asns[a]++;
  }
  w->tables.push_back({"hosts", {Bat::MakeI64(std::move(ip)),
                                 Bat::MakeI64(std::move(asn)),
                                 Bat::MakeI64(std::move(region))}});
  uint64_t sum = 0;
  for (const auto& [a, n] : small_ip_asns) sum += IntRowHash({a, n});
  const uint64_t table_answer = CombineRows(sum, small_ip_asns.size());

  const Micros slide = 10000;
  w->queries = {
      {"flows_by_asn",
       "SELECT asn, count(*) AS pkts, sum(bytes) AS bytes FROM flows_a "
       "[RANGE 100 MILLISECONDS SLIDE 10 MILLISECONDS] "
       "JOIN hosts ON flows_a.src = hosts.ip GROUP BY asn",
       slide, {0}, false},
      {"flow_pairs",
       "SELECT count(*) AS pairs, sum(flows_b.bytes) AS bytes FROM flows_a "
       "[RANGE 100 MILLISECONDS SLIDE 10 MILLISECONDS] JOIN flows_b "
       "[RANGE 100 MILLISECONDS SLIDE 10 MILLISECONDS] "
       "ON flows_a.dst = flows_b.dst WHERE flows_a.bytes > 1000",
       slide, {0, 1}, false},
  };
  // Bounds of an as-of-now answer of shape (key, count, ...): every key
  // comes from its domain, every group counts at least one row, the counts
  // add up to no more rows than were pushed when the query returned, and
  // to some rows once a tick was pushed before it began (the live window
  // keeps its rows resident).
  auto bounded = [](std::set<int64_t> keys) {
    return [keys = std::move(keys)](const dc::ColumnSet& r, uint64_t before,
                                    uint64_t after) {
      if (r.cols.size() < 2) return false;
      uint64_t total = 0;
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        const int64_t n = r.cols[1]->I64Data()[i];
        if (keys.count(r.cols[0]->I64Data()[i]) == 0 || n <= 0) return false;
        total += static_cast<uint64_t>(n);
      }
      return total <= after && (before == 0 || total > 0);
    };
  };
  w->adhoc = {
      {"table_groupby",
       "SELECT asn, count(*) AS n FROM hosts WHERE ip < 500 GROUP BY asn",
       table_answer, -1, nullptr},
      {"basket_groupby",
       "SELECT port, count(*) AS pkts, sum(bytes) AS bytes FROM flows_a "
       "GROUP BY port",
       0, 0, bounded({80, 443, 22, 53, 8080, 25})},  // PacketBatch's ports
      {"basket_join",
       "SELECT asn, count(*) AS pkts FROM flows_b JOIN hosts "
       "ON flows_b.src = hosts.ip GROUP BY asn",
       0, 1, bounded(asns)},
  };
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* out) {
  Workload w;
  w.name = name;
  if (name == "lr") {
    MakeLr(seed, seconds, &w);
  } else if (name == "netmon") {
    MakeNetmon(seed, seconds, &w);
  } else if (name == "online_analytics") {
    MakeOnlineAnalytics(seed, seconds, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace dcbench
