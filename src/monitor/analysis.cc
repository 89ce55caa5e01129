#include "monitor/analysis.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace dc::monitor {

AnalysisPane::AnalysisPane(size_t capacity) : capacity_(capacity) {}

void AnalysisPane::Record(const std::string& metric, Micros t, double value) {
  auto& dq = series_[metric];
  dq.push_back(SamplePoint{t, value});
  if (dq.size() > capacity_) dq.pop_front();
  // Mirror every sampled point into the engine's metrics registry so the
  // pane's series are also visible through ToJson()/ToPrometheus().
  // Registry locks rank above kMonitor, so this is legal under mu_.
  if (registry_ != nullptr) registry_->GetGauge(metric)->Set(value);
}

void AnalysisPane::Sample(Engine& engine) {
  const Micros now = SteadyMicros();
  MutexLock lock(mu_);
  registry_ = &engine.metrics();

  // Rate against the previous sample's cumulative value. The first sample
  // of a counter — and any sample where the counter went backwards (query
  // resubmitted under the same name, counter reset) — only re-baselines:
  // recording a fabricated 0-rate point there would drag the period
  // aggregates (mean/min) of a healthy rate series down.
  auto rate = [&](const std::string& metric, const std::string& counter,
                  double cumulative) {
    auto it = prev_counter_.find(counter);
    if (it != prev_counter_.end() && now > it->second.first &&
        cumulative >= it->second.second) {
      Record(metric, now,
             (cumulative - it->second.second) /
                 (static_cast<double>(now - it->second.first) /
                  kMicrosPerSecond));
    }
    prev_counter_[counter] = {now, cumulative};
  };

  double net_in = 0, net_out = 0;
  for (const std::string& s : engine.StreamNames()) {
    auto stats = engine.StreamStats(s);
    if (!stats.ok()) continue;
    Record("stream." + s + ".resident_rows", now,
           static_cast<double>(stats->resident_rows));
    Record("stream." + s + ".memory_bytes", now,
           static_cast<double>(stats->memory_bytes));
    rate("stream." + s + ".rate_rows_per_s", "stream." + s + ".appended",
         static_cast<double>(stats->appended_total));
    // Backpressure pane: occupancy high watermark and producer stalls.
    Record("stream." + s + ".resident_hwm_rows", now,
           static_cast<double>(stats->resident_hwm_rows));
    Record("stream." + s + ".append_stalls", now,
           static_cast<double>(stats->append_stalls));
    Record("stream." + s + ".stall_micros", now,
           static_cast<double>(stats->stall_micros));
    net_in += static_cast<double>(stats->appended_total);
  }

  for (const ContinuousQueryInfo& q : engine.Queries()) {
    const std::string p = "query." + q.name;
    Record(p + ".emissions", now, static_cast<double>(q.factory.emissions));
    Record(p + ".shared_with", now, static_cast<double>(q.shared_with));
    Record(p + ".tuples_out", now,
           static_cast<double>(q.factory.tuples_out));
    Record(p + ".cached_bytes", now,
           static_cast<double>(q.factory.cached_bytes));
    Record(p + ".exec_us_per_fire", now,
           q.factory.invocations == 0
               ? 0
               : static_cast<double>(q.factory.total_exec_micros) /
                     static_cast<double>(q.factory.invocations));
    rate(p + ".emission_rate_per_s", p + ".emissions_counter",
         static_cast<double>(q.factory.emissions));
    Record(p + ".empty_emissions", now,
           static_cast<double>(q.factory.empty_emissions));
    Record(p + ".out_resident_rows", now,
           static_cast<double>(q.out_basket.resident_rows));
    // Ingest→delivery latency pane (docs/OBSERVABILITY.md): percentiles
    // of the query's end-to-end histogram. No point until the first
    // delivery — a 0 µs p99 would read as "infinitely fast", not "idle".
    if (q.latency.count() > 0) {
      Record(p + ".latency_p50_us", now,
             static_cast<double>(q.latency.Percentile(0.50)));
      Record(p + ".latency_p95_us", now,
             static_cast<double>(q.latency.Percentile(0.95)));
      Record(p + ".latency_p99_us", now,
             static_cast<double>(q.latency.Percentile(0.99)));
    }
    net_out += static_cast<double>(q.factory.tuples_out);
  }
  Record("net.total_tuples_in", now, net_in);
  Record("net.total_tuples_out", now, net_out);

  // Sharing pane (docs/SHARING.md): how much multi-query work the shared
  // registry is absorbing, plus per-node subscriber/build counts.
  const SharingStats sharing = engine.GetSharingStats();
  Record("sharing.shared_nodes", now,
         static_cast<double>(sharing.shared_nodes));
  Record("sharing.shared_factories", now,
         static_cast<double>(sharing.shared_factories));
  Record("sharing.sharing_hits", now,
         static_cast<double>(sharing.sharing_hits));
  rate("sharing.hit_rate_per_s", "sharing.hits_counter",
       static_cast<double>(sharing.sharing_hits));
  for (const SharedNodeStats& n : sharing.nodes) {
    const std::string p = "sharing.node." + n.label;
    Record(p + ".subscribers", now, static_cast<double>(n.subscribers));
    Record(p + ".partial_builds", now,
           static_cast<double>(n.partial_builds));
    Record(p + ".sharing_hits", now, static_cast<double>(n.sharing_hits));
    Record(p + ".cached_bytes", now, static_cast<double>(n.cached_bytes));
  }

  // Scheduler pane: fire throughput and the ready queue's depth.
  const SchedulerStats sched = engine.SchedStats();
  Record("sched.fires", now, static_cast<double>(sched.fires));
  rate("sched.fire_rate_per_s", "sched.fires_counter",
       static_cast<double>(sched.fires));
  Record("sched.notifications", now,
         static_cast<double>(sched.notifications));
  Record("sched.enqueues", now, static_cast<double>(sched.enqueues));
  Record("sched.spurious_pops", now,
         static_cast<double>(sched.spurious_pops));
  Record("sched.queue_depth", now, static_cast<double>(sched.queue_depth));
  Record("sched.max_queue_depth", now,
         static_cast<double>(sched.max_queue_depth));
}

std::vector<std::string> AnalysisPane::MetricNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, dq] : series_) out.push_back(name);
  return out;
}

Result<SeriesAggregate> AnalysisPane::Aggregate(const std::string& metric,
                                                Micros period_us) const {
  MutexLock lock(mu_);
  auto it = series_.find(metric);
  if (it == series_.end()) {
    return Status::NotFound("unknown metric '" + metric + "'");
  }
  const auto& dq = it->second;
  SeriesAggregate agg;
  if (dq.empty()) return agg;
  const Micros cutoff = period_us == 0 ? INT64_MIN : dq.back().t - period_us;
  double sum = 0;
  for (const SamplePoint& p : dq) {
    if (p.t < cutoff) continue;
    if (agg.samples == 0) {
      agg.min = agg.max = p.value;
    } else {
      agg.min = std::min(agg.min, p.value);
      agg.max = std::max(agg.max, p.value);
    }
    sum += p.value;
    agg.last = p.value;
    ++agg.samples;
  }
  if (agg.samples > 0) agg.mean = sum / static_cast<double>(agg.samples);
  return agg;
}

Result<std::vector<SamplePoint>> AnalysisPane::Series(
    const std::string& metric) const {
  MutexLock lock(mu_);
  auto it = series_.find(metric);
  if (it == series_.end()) {
    return Status::NotFound("unknown metric '" + metric + "'");
  }
  return std::vector<SamplePoint>(it->second.begin(), it->second.end());
}

std::string AnalysisPane::ToCsv() const {
  MutexLock lock(mu_);
  std::set<Micros> instants;
  for (const auto& [name, dq] : series_) {
    for (const SamplePoint& p : dq) instants.insert(p.t);
  }
  std::string out = "t_us";
  for (const auto& [name, dq] : series_) out += "," + name;
  out += "\n";
  for (Micros t : instants) {
    out += StrFormat("%lld", static_cast<long long>(t));
    for (const auto& [name, dq] : series_) {
      out += ",";
      auto it = std::lower_bound(
          dq.begin(), dq.end(), t,
          [](const SamplePoint& p, Micros x) { return p.t < x; });
      if (it != dq.end() && it->t == t) out += FormatDouble(it->value);
    }
    out += "\n";
  }
  return out;
}

std::string AnalysisPane::RenderSummary(Micros period_us) const {
  std::string out = StrFormat("%-40s %12s %12s %12s %12s\n", "metric", "min",
                              "mean", "max", "last");
  out += std::string(92, '-') + "\n";
  for (const std::string& name : MetricNames()) {
    auto agg = Aggregate(name, period_us);
    if (!agg.ok() || agg->samples == 0) continue;
    out += StrFormat("%-40s %12s %12s %12s %12s\n", name.c_str(),
                     FormatDouble(agg->min).c_str(),
                     FormatDouble(agg->mean).c_str(),
                     FormatDouble(agg->max).c_str(),
                     FormatDouble(agg->last).c_str());
  }
  return out;
}

}  // namespace dc::monitor
