// dcbench: drives one workload (workloads.h) through the public dc::Engine
// API and prints its metrics (README.md). One run:
//
//   1. closed loop, threaded engine: the input pushed as fast as basket
//      backpressure admits, repeated; -> throughput_rows_s
//   2. the same input on a synchronous engine (push + Pump), repeated;
//      -> throughput_1t_rows_s
//   3. open loop: one generator thread sends tick i at start + i * tick,
//      whatever the engine does, while one client thread runs one-time
//      queries (online_analytics) or checkpoints (netmon);
//      -> latency_*, send_lag_p99_ms, adhoc_*
//   4. netmon: fresh engines recover from the open loop's durability dir;
//      -> recovery_s
//   5. off the clock: a synchronous, unshared, full re-evaluation engine
//      replays the longest input prefix; every emission of every phase is
//      compared with it by an order-independent checksum.
//
// With --trace 1 the phases run on engines with tracing enabled (after an
// untraced synchronous pass for the overhead ratio); the open loop's
// Chrome trace and an emission log go to --out for analyze_trace.py.
//
// The last line of stdout is one JSON object; run.py turns it into the
// benchmark's result line.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "monitor/trace.h"
#include "storage/wal.h"
#include "util/string_util.h"
#include "workloads.h"

namespace dcbench {
namespace {

using dc::ColumnSet;
using dc::Engine;
using dc::EngineOptions;
using dc::ExecMode;
using dc::StrFormat;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

[[noreturn]] void Fatal(const std::string& msg) {
  fprintf(stderr, "dcbench: %s\n", msg.c_str());
  exit(1);
}

void CheckOk(const dc::Status& st, const std::string& what) {
  if (!st.ok()) Fatal(what + ": " + st.ToString());
}

/// Steady-clock time in µs with sub-µs digits, on the epoch of
/// dc::SteadyMicros() (so it lines up with trace timestamps).
double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilUs(double t_us) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::micro>(t_us))));
}

/// Exact quantile of the samples (linear interpolation between order
/// statistics); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A "Vm...:" figure of /proc/self/status in MB (VmHWM = peak resident
/// set so far, VmRSS = resident set now).
double ProcStatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Durability without the device
// ---------------------------------------------------------------------------

/// The real filesystem, except that fsync of a file or directory returns
/// at once. Every WAL, catalog and snapshot byte is still encoded and
/// written, and the engine still asks for every sync (wal.syncs counts
/// them); only the wait for the device is gone. On a shared VM that wait
/// follows other tenants' I/O: it was half of netmon's set-up time, and
/// doubled whenever the disk was busy.
class NoSyncEnv : public dc::storage::WalEnv {
 public:
  static NoSyncEnv* Get() {
    static NoSyncEnv env;
    return &env;
  }

  dc::Result<std::unique_ptr<dc::storage::WalFile>> Open(
      const std::string& path, bool truncate) override {
    auto file = real_->Open(path, truncate);
    if (!file.ok()) return file.status();
    return std::unique_ptr<dc::storage::WalFile>(
        std::make_unique<File>(std::move(*file)));
  }
  dc::Status Rename(const std::string& from, const std::string& to) override {
    return real_->Rename(from, to);
  }
  dc::Status RemoveFile(const std::string& path) override {
    return real_->RemoveFile(path);
  }
  dc::Status SyncDir(const std::string&) override { return dc::Status::OK(); }
  dc::Status TruncateFile(const std::string& path, uint64_t len) override {
    return real_->TruncateFile(path, len);
  }
  bool FileExists(const std::string& path) override {
    return real_->FileExists(path);
  }
  dc::Status CreateDirs(const std::string& path) override {
    return real_->CreateDirs(path);
  }

 private:
  class File : public dc::storage::WalFile {
   public:
    explicit File(std::unique_ptr<dc::storage::WalFile> f) : f_(std::move(f)) {}
    dc::Status Append(std::string_view data) override { return f_->Append(data); }
    dc::Status Sync() override { return dc::Status::OK(); }
    dc::Status Close() override { return f_->Close(); }

   private:
    std::unique_ptr<dc::storage::WalFile> f_;
  };

  dc::storage::WalEnv* real_ = dc::storage::WalEnv::Default();
};

// ---------------------------------------------------------------------------
// Engine instances and their sinks
// ---------------------------------------------------------------------------

/// What one query's sink saw. Written by the emitter thread, read after
/// the phase's expected emissions have all arrived.
struct QueryState {
  std::mutex mu;
  std::vector<uint64_t> sums;
  std::vector<uint64_t> key_sums;  // first three columns (lr accidents)
  std::vector<double> sink_us;
  std::atomic<uint64_t> delivered{0};
};

struct Instance {
  // Declared before the engine: emitter threads call into these until
  // the engine is destroyed.
  std::vector<std::unique_ptr<QueryState>> states;
  std::unique_ptr<Engine> engine;
  std::vector<int> qids;
  double setup_s = 0;
  std::vector<double> submit_ms;
};

/// Constructs an engine and registers the workload on it: the timed span
/// is setup_s (construction + DDL + table load + every SubmitContinuous).
std::unique_ptr<Instance> SetUp(const Workload& w, const EngineOptions& eo,
                                ExecMode mode) {
  auto inst = std::make_unique<Instance>();
  for (size_t i = 0; i < w.queries.size(); ++i) {
    inst->states.push_back(std::make_unique<QueryState>());
  }
  const double t0 = NowUs();
  inst->engine = std::make_unique<Engine>(eo);
  CheckOk(inst->engine->recovery_status(), "engine recovery status");
  for (const std::string& ddl : w.ddl) CheckOk(inst->engine->Execute(ddl), ddl);
  for (const TableLoad& t : w.tables) {
    auto table = inst->engine->catalog().GetTable(t.name);
    CheckOk(table.status(), "table " + t.name);
    CheckOk((*table)->AppendColumns(t.cols), "load " + t.name);
  }
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QuerySpec& q = w.queries[i];
    QueryState* st = inst->states[i].get();
    const bool keyed = q.lr_accidents;
    Engine::ContinuousOptions opts;
    opts.mode = mode;
    opts.name = q.name;
    opts.sink = [st, keyed, i](const ColumnSet& e) {
      const double t = NowUs();
      dc::trace::Span span("bench.sink", "bench", static_cast<int64_t>(i));
      const uint64_t sum = Checksum(e);
      const uint64_t key = keyed ? Checksum(e, 3) : 0;
      std::lock_guard<std::mutex> lock(st->mu);
      st->sums.push_back(sum);
      st->key_sums.push_back(key);
      st->sink_us.push_back(t);
      st->delivered.fetch_add(1, std::memory_order_release);
    };
    const double s0 = NowUs();
    auto qid = inst->engine->SubmitContinuous(q.sql, opts);
    inst->submit_ms.push_back((NowUs() - s0) / 1e3);
    CheckOk(qid.status(), "submit " + q.name);
    inst->qids.push_back(*qid);
  }
  inst->setup_s = (NowUs() - t0) / 1e6;
  return inst;
}

/// Per query, the tick whose send closes its k-th window: the first tick
/// at which every input stream's watermark has reached the boundary.
std::vector<std::vector<size_t>> TriggerTicks(const Workload& w) {
  std::vector<std::vector<size_t>> out;
  for (const QuerySpec& q : w.queries) {
    Micros first_ts = INT64_MAX;
    for (int s : q.streams) {
      first_ts = std::min(first_ts, w.streams[s].batches[0][0]->I64Data()[0]);
    }
    std::vector<size_t> trig;
    for (int64_t m = first_ts / q.slide + 1;; ++m) {
      const Micros boundary = m * q.slide;
      size_t tick = 0;
      bool found = true;
      for (int s : q.streams) {
        const auto& mx = w.streams[s].max_ts;
        const auto it = std::lower_bound(mx.begin(), mx.end(), boundary);
        if (it == mx.end()) {
          found = false;
          break;
        }
        tick = std::max(tick, static_cast<size_t>(it - mx.begin()) +
                                  w.streams[s].tick_offset);
      }
      if (!found) break;
      trig.push_back(tick);
    }
    out.push_back(std::move(trig));
  }
  return out;
}

size_t ExpectedAfter(const std::vector<size_t>& trig, size_t ticks) {
  return static_cast<size_t>(
      std::lower_bound(trig.begin(), trig.end(), ticks) - trig.begin());
}

/// Waits until every query delivered what `ticks` ticks must close, for
/// at most `timeout_s`; a shortfall then counts as missing results.
void WaitDelivered(const Instance& inst,
                   const std::vector<std::vector<size_t>>& trig, size_t ticks,
                   double timeout_s) {
  const double deadline = NowUs() + timeout_s * 1e6;
  for (size_t q = 0; q < trig.size(); ++q) {
    const size_t want = ExpectedAfter(trig[q], ticks);
    while (inst.states[q]->delivered.load(std::memory_order_acquire) < want) {
      if (NowUs() > deadline) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

double LastSinkUs(Instance& inst) {
  double last = 0;
  for (auto& st : inst.states) {
    std::lock_guard<std::mutex> lock(st->mu);
    if (!st->sink_us.empty()) last = std::max(last, st->sink_us.back());
  }
  return last;
}

/// Emissions one phase delivered, kept for verification at the end.
struct PhaseCapture {
  size_t ticks = 0;
  std::vector<std::vector<uint64_t>> sums;
  uint64_t refused_pushes = 0;
};

PhaseCapture Capture(Instance& inst, size_t ticks, uint64_t refused) {
  PhaseCapture c{ticks, {}, refused};
  for (auto& st : inst.states) {
    std::lock_guard<std::mutex> lock(st->mu);
    c.sums.push_back(st->sums);
  }
  return c;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string rev = "unknown";
  bool corrupt_emission = false;
};

// Extra set-ups after every closed-loop and synchronous repetition.
constexpr int kSetUpsPerRep = 2;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Run {
 public:
  Run(Args args, Workload w)
      : args_(std::move(args)), w_(std::move(w)), trig_(TriggerTicks(w_)) {}

  int Main();

 private:
  /// Options of a measured engine; a durable workload gets an empty
  /// durability directory named `dur_tag`.
  EngineOptions Options(bool threaded, const std::string& dur_tag) {
    EngineOptions eo;
    eo.scheduler_workers = threaded ? 2 : 0;
    eo.enable_tracing = traced_;
    if (w_.durable) {
      eo.durability.dir = args_.out_dir + "/durable/" + dur_tag;
      eo.durability.env = NoSyncEnv::Get();
      std::filesystem::remove_all(eo.durability.dir);
    }
    return eo;
  }

  /// Destroys a repetition's engine and deletes its durability directory.
  void Discard(std::unique_ptr<Instance> inst, const EngineOptions& eo) {
    inst.reset();
    if (!eo.durability.dir.empty()) {
      std::filesystem::remove_all(eo.durability.dir);
    }
  }

  /// Pushes tick t of every stream; `starts` (if given) gets each
  /// stream's push start time, 0 when it sends nothing at t, and `push_us`
  /// each push's duration.
  uint64_t PushTick(Engine& e, size_t t, std::vector<double>* starts,
                    std::vector<double>* push_us) {
    uint64_t refused = 0;
    for (size_t s = 0; s < w_.streams.size(); ++s) {
      const auto* batch = w_.streams[s].BatchAt(t);
      if (batch == nullptr) {
        if (starts != nullptr) starts->push_back(0);
        continue;
      }
      dc::trace::Span span("bench.push", "bench",
                           static_cast<int64_t>(t * w_.streams.size() + s));
      const double p0 = NowUs();
      if (!e.PushColumns(w_.streams[s].name, *batch).ok()) ++refused;
      if (push_us != nullptr) {
        starts->push_back(p0);
        push_us->push_back(NowUs() - p0);
      }
    }
    return refused;
  }

  void ClosedLoop();
  void Synchronous(int reps, std::vector<double>* rows_s, bool keep);
  void OpenLoop(bool last);
  void SetUps(int n);
  void AdhocClient(Engine& e, const std::atomic<size_t>& progress,
                   const std::atomic<bool>& done);
  void Checkpointer(Engine& e, const std::atomic<size_t>& progress);
  void Recover();
  void Reference();
  void Verify();
  void LayerStats(Instance& inst);
  void WriteTraceFiles(Instance& inst, double start_us,
                       const std::vector<double>& push_starts);

  Args args_;
  Workload w_;
  std::vector<std::vector<size_t>> trig_;
  bool traced_ = false;

  std::vector<PhaseCapture> captures_;
  std::vector<double> setup_s_;
  std::vector<double> submit_ms_;
  std::vector<double> closed_rows_s_;
  std::vector<double> sync_rows_s_;
  std::vector<double> untraced_sync_rows_s_;
  std::vector<double> latency_ms_;      // every open-loop emission
  std::vector<double> segment_p99_ms_;  // each open-loop segment's p99
  uint64_t late_ = 0;
  std::vector<double> lag_ms_;
  std::vector<double> push_us_;
  std::vector<double> stall_ms_, resident_hwm_, memory_hwm_mb_, readers_;

  // One-time query client.
  std::vector<double> adhoc_ms_;
  std::map<std::string, std::vector<double>> adhoc_shape_us_;
  std::map<std::string, std::vector<double>> compile_shape_us_;
  double adhoc_secs_ = 0;
  uint64_t adhoc_errors_ = 0, adhoc_wrong_ = 0, adhoc_late_ = 0;

  // Durability.
  std::vector<double> checkpoint_ms_;
  uint64_t checkpoint_errors_ = 0;
  std::vector<double> recovery_s_;
  std::map<std::string, uint64_t> counters_;

  std::vector<std::vector<uint64_t>> ref_;
  uint64_t expected_ = 0, missing_ = 0, wrong_ = 0, refused_ = 0;
  uint64_t accident_mismatches_ = 0, reference_problems_ = 0;
  uint64_t recovery_failures_ = 0;
  double peak_rss_mb_ = 0;
  std::vector<Metric> layer_;
  std::vector<std::string> details_;
  std::map<std::string, double> engine_latency_p50_ms_;
  std::vector<std::vector<double>> query_latency_ms_;
  std::vector<std::pair<std::string, double>> phase_s_;  // wall time
};

void Run::ClosedLoop() {
  const EngineOptions eo = Options(true, "closed");
  auto inst = SetUp(w_, eo, ExecMode::kIncremental);
  setup_s_.push_back(inst->setup_s);
  const size_t n = w_.closed_loop_ticks;
  const double first = NowUs();
  uint64_t refused = 0;
  for (size_t t = 0; t < n; ++t) {
    refused += PushTick(*inst->engine, t, nullptr, nullptr);
  }
  WaitDelivered(*inst, trig_, n, 60);
  const double last = LastSinkUs(*inst);
  closed_rows_s_.push_back(static_cast<double>(w_.RowsInTicks(n)) * 1e6 /
                           (last - first));
  inst->engine->WaitIdle();
  double stall = 0, res = 0, mem = 0, readers = 0;
  for (const StreamInput& s : w_.streams) {
    auto bs = inst->engine->StreamStats(s.name);
    if (!bs.ok()) continue;
    stall += static_cast<double>(bs->stall_micros) / 1e3;
    res = std::max(res, static_cast<double>(bs->resident_hwm_rows));
    mem = std::max(mem, static_cast<double>(bs->memory_hwm_bytes) / 1048576.0);
    readers += static_cast<double>(bs->readers);
  }
  stall_ms_.push_back(stall);
  resident_hwm_.push_back(res);
  memory_hwm_mb_.push_back(mem);
  readers_.push_back(readers);
  captures_.push_back(Capture(*inst, n, refused));
  Discard(std::move(inst), eo);
}

void Run::SetUps(int n) {
  for (int i = 0; i < n; ++i) {
    const EngineOptions eo = Options(true, "setup");
    auto inst = SetUp(w_, eo, ExecMode::kIncremental);
    setup_s_.push_back(inst->setup_s);
    Discard(std::move(inst), eo);
  }
}

void Run::Synchronous(int reps, std::vector<double>* rows_s, bool keep) {
  for (int r = 0; r < reps; ++r) {
    const EngineOptions eo = Options(false, "sync");
    auto inst = SetUp(w_, eo, ExecMode::kIncremental);
    const size_t n = w_.sync_ticks;
    const double first = NowUs();
    uint64_t refused = 0;
    for (size_t t = 0; t < n; ++t) {
      refused += PushTick(*inst->engine, t, nullptr, nullptr);
      inst->engine->Pump();
    }
    const double last = LastSinkUs(*inst);
    rows_s->push_back(static_cast<double>(w_.RowsInTicks(n)) * 1e6 /
                      (last - first));
    if (keep) captures_.push_back(Capture(*inst, n, refused));
    Discard(std::move(inst), eo);
  }
}

void Run::AdhocClient(Engine& e, const std::atomic<size_t>& progress,
                      const std::atomic<bool>& done) {
  const double start = NowUs();
  uint64_t issued = 0;
  while (!done.load()) {
    const AdhocSpec& a = w_.adhoc[issued++ % w_.adhoc.size()];
    const size_t ticks_before = progress.load();
    if (traced_) {
      const double c0 = NowUs();
      auto plan = e.ExplainSql(a.sql, dc::plan::PlanMode::kOneTime);
      compile_shape_us_[a.shape].push_back(NowUs() - c0);
      if (!plan.ok()) ++adhoc_errors_;
    }
    double q0 = 0;
    dc::Result<ColumnSet> r = ColumnSet{};
    {
      dc::trace::Span span("bench.adhoc", "bench");
      q0 = NowUs();
      r = e.Query(a.sql);
    }
    const double us = NowUs() - q0;
    adhoc_ms_.push_back(us / 1e3);
    adhoc_shape_us_[a.shape].push_back(us);
    if (us > static_cast<double>(w_.latency_limit_us)) ++adhoc_late_;
    if (!r.ok()) {
      ++adhoc_errors_;
    } else if (a.expected != 0 && Checksum(*r) != a.expected) {
      ++adhoc_wrong_;
    } else if (a.plausible) {
      // The tick being pushed when the query returned may be visible too.
      const size_t s = static_cast<size_t>(a.stream);
      if (!a.plausible(*r, w_.StreamRowsInTicks(s, ticks_before),
                       w_.StreamRowsInTicks(s, progress.load() + 1))) {
        ++adhoc_wrong_;
      }
    }
  }
  adhoc_secs_ += (NowUs() - start) / 1e6;
}

void Run::Checkpointer(Engine& e, const std::atomic<size_t>& progress) {
  // Checkpoints fall at fixed ticks, so the WAL tail recovery replays is
  // the same in every run of a given length.
  for (size_t at = w_.checkpoint_every_ticks; at < w_.open_loop_ticks;
       at += w_.checkpoint_every_ticks) {
    while (progress.load() < at) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    dc::trace::Span span("bench.checkpoint", "bench");
    const double c0 = NowUs();
    if (!e.Checkpoint().ok()) ++checkpoint_errors_;
    checkpoint_ms_.push_back((NowUs() - c0) / 1e3);
  }
}

void Run::OpenLoop(bool last) {
  auto inst = SetUp(w_, Options(true, "open"), ExecMode::kIncremental);
  setup_s_.push_back(inst->setup_s);
  submit_ms_ = inst->submit_ms;
  Engine& e = *inst->engine;
  const size_t n = w_.open_loop_ticks;
  std::atomic<size_t> progress{0};
  std::atomic<bool> done{false};
  if (traced_) dc::trace::ClearForTest();
  std::thread client;
  if (!w_.adhoc.empty()) {
    client = std::thread([&] { AdhocClient(e, progress, done); });
  } else if (w_.durable && w_.checkpoint_every_ticks > 0) {
    client = std::thread([&] { Checkpointer(e, progress); });
  }
  const double start = NowUs() + 5000;
  uint64_t refused = 0;
  std::vector<double> push_starts;
  for (size_t t = 0; t < n; ++t) {
    const double due = start + static_cast<double>(t) *
                                   static_cast<double>(w_.tick_us);
    SleepUntilUs(due);
    lag_ms_.push_back((NowUs() - due) / 1e3);
    refused += PushTick(e, t, &push_starts, &push_us_);
    progress.store(t + 1);
  }
  WaitDelivered(*inst, trig_, n, 60);
  done.store(true);
  if (client.joinable()) client.join();
  e.WaitIdle();
  if (w_.durable) {
    // Two checkpoints of the idle engine: the WAL is cut to the first
    // one's horizon, so recovery replays the same tail in every run.
    for (int i = 0; i < 2; ++i) {
      if (!e.Checkpoint().ok()) ++checkpoint_errors_;
    }
  }
  query_latency_ms_.resize(w_.queries.size());
  std::vector<double> segment_ms;
  for (size_t q = 0; q < w_.queries.size(); ++q) {
    QueryState& st = *inst->states[q];
    std::lock_guard<std::mutex> lock(st.mu);
    const size_t k_max = std::min(st.sink_us.size(), ExpectedAfter(trig_[q], n));
    for (size_t k = 0; k < k_max; ++k) {
      const double sched = start + static_cast<double>(trig_[q][k]) *
                                       static_cast<double>(w_.tick_us);
      const double lat = st.sink_us[k] - sched;
      segment_ms.push_back(lat / 1e3);
      query_latency_ms_[q].push_back(lat / 1e3);
      if (lat > static_cast<double>(w_.latency_limit_us)) ++late_;
    }
  }
  segment_p99_ms_.push_back(Quantile(segment_ms, 0.99));
  latency_ms_.insert(latency_ms_.end(), segment_ms.begin(), segment_ms.end());
  if (last) {
    LayerStats(*inst);
    if (traced_) WriteTraceFiles(*inst, start, push_starts);
  }
  captures_.push_back(Capture(*inst, n, refused));
}

void Run::LayerStats(Instance& inst) {
  Engine& e = *inst.engine;
  const double rows = static_cast<double>(w_.RowsInTicks(w_.open_loop_ticks));
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    layer_.push_back({name, v, unit});
  };
  // scheduler
  const dc::SchedulerStats ss = e.SchedStats();
  uint64_t max_depth = 0;
  for (const auto& sh : ss.shards) max_depth = std::max(max_depth, sh.max_queue_depth);
  add("scheduler.fires", static_cast<double>(ss.fires), "count");
  add("scheduler.spurious_ratio",
      ss.enqueues ? static_cast<double>(ss.spurious_pops) /
                        static_cast<double>(ss.enqueues)
                  : 0,
      "ratio");
  add("scheduler.steals", static_cast<double>(ss.steals), "count");
  add("scheduler.max_queue_depth", static_cast<double>(max_depth), "count");
  // factory (summed over queries; each aliased factory counted once)
  std::map<int, dc::FactoryStats> factories;
  double backlog = 0, emitted_rows = 0;
  for (const dc::ContinuousQueryInfo& qi : e.Queries()) {
    auto f = e.GetFactory(qi.id);
    if (f != nullptr) factories[f->id()] = qi.factory;
    backlog = std::max(backlog, static_cast<double>(qi.out_basket.resident_hwm_rows));
    emitted_rows += static_cast<double>(qi.emitter.rows);
    const double engine_p50_ms =
        static_cast<double>(qi.latency.Percentile(0.5)) / 1e3;
    details_.push_back(StrFormat(
        "\"query.%s\": {\"emissions\": %llu, \"engine_latency_p50_ms\": %.3f, "
        "\"exec_ms\": %.3f, \"invocations\": %llu}",
        qi.name.c_str(), static_cast<unsigned long long>(qi.emitter.emissions),
        engine_p50_ms, static_cast<double>(qi.factory.total_exec_micros) / 1e3,
        static_cast<unsigned long long>(qi.factory.invocations)));
    engine_latency_p50_ms_[qi.name] = engine_p50_ms;
  }
  double exec_ms = 0, max_exec_ms = 0, inv = 0, emis = 0, tin = 0, cached = 0;
  double pairs = 0, retained = 0, index = 0;
  for (const auto& [id, fs] : factories) {
    const double ms = static_cast<double>(fs.total_exec_micros) / 1e3;
    exec_ms += ms;
    max_exec_ms = std::max(max_exec_ms, ms);
    inv += static_cast<double>(fs.invocations);
    emis += static_cast<double>(fs.emissions);
    tin += static_cast<double>(fs.tuples_in);
    cached += static_cast<double>(fs.cached_bytes) / 1048576.0;
    pairs += static_cast<double>(fs.delta_pairs);
    retained += static_cast<double>(fs.retained_rows);
    index += static_cast<double>(fs.index_entries);
  }
  add("factory.exec_ms", exec_ms, "ms");
  add("factory.max_query_exec_ms", max_exec_ms, "ms");
  add("factory.useful_fire_ratio", inv ? emis / inv : 0, "ratio");
  add("factory.tuples_in_per_row", rows ? tin / rows : 0, "ratio");
  add("factory.cached_mb", cached, "MB");
  add("factory.delta_pairs", pairs, "count");
  add("factory.retained_rows", retained, "count");
  add("factory.index_entries", index, "count");
  // sharing
  const dc::SharingStats sh = e.GetSharingStats();
  double builds = 0, node_in = 0;
  for (const auto& node : sh.nodes) {
    builds += static_cast<double>(node.partial_builds);
    node_in += static_cast<double>(node.tuples_in);
  }
  const double hits = static_cast<double>(sh.sharing_hits);
  add("sharing.nodes", static_cast<double>(sh.shared_nodes), "count");
  add("sharing.partial_builds", builds, "count");
  add("sharing.hit_ratio", hits + builds > 0 ? hits / (hits + builds) : 0,
      "ratio");
  add("sharing.node_tuples_in", node_in, "count");
  // emitter
  add("emitter.backlog_hwm_rows", backlog, "count");
  add("emitter.rows", emitted_rows, "count");
  // durability counters of the open-loop engine
  for (const auto& m : e.metrics().Collect()) {
    if (m.kind == dc::monitor::MetricSnapshot::Kind::kCounter) {
      counters_[m.name] = static_cast<uint64_t>(m.value);
    }
  }
}


void Run::WriteTraceFiles(Instance& inst, double start_us,
                          const std::vector<double>& push_starts) {
  std::ofstream(args_.out_dir + "/trace.json") << dc::trace::DumpJson();
  std::ofstream out(args_.out_dir + "/emissions.json");
  out << StrFormat("{\"start_us\": %.3f, \"tick_us\": %lld, \"streams\": %zu, "
                   "\"push_start_us\": [",
                   start_us, static_cast<long long>(w_.tick_us),
                   w_.streams.size());
  for (size_t i = 0; i < push_starts.size(); ++i) {
    out << StrFormat("%s%.3f", i ? ", " : "", push_starts[i]);
  }
  out << "], \"queries\": [";
  for (size_t q = 0; q < w_.queries.size(); ++q) {
    auto f = inst.engine->GetFactory(inst.qids[q]);
    int last_stream = 0;
    for (int s : w_.queries[q].streams) last_stream = std::max(last_stream, s);
    out << StrFormat("%s{\"name\": \"%s\", \"factory_id\": %d, "
                     "\"trigger_stream\": %d, \"engine_p50_ms\": %.3f, "
                     "\"emissions\": [",
                     q ? ", " : "", w_.queries[q].name.c_str(),
                     f ? f->id() : -1, last_stream,
                     engine_latency_p50_ms_[w_.queries[q].name]);
    QueryState& st = *inst.states[q];
    std::lock_guard<std::mutex> lock(st.mu);
    const size_t k_max =
        std::min(st.sink_us.size(), ExpectedAfter(trig_[q], w_.open_loop_ticks));
    for (size_t k = 0; k < k_max; ++k) {
      out << StrFormat("%s[%zu, %.3f]", k ? ", " : "", trig_[q][k],
                       st.sink_us[k]);
    }
    out << "]}";
  }
  out << "]}\n";
}

void Run::Recover() {
  if (!w_.durable) return;
  EngineOptions eo;
  eo.durability.dir = args_.out_dir + "/durable/open";
  eo.durability.env = NoSyncEnv::Get();
  for (int r = 0; r < 3; ++r) {
    const double t0 = NowUs();
    Engine e(eo);
    const bool ok = e.recovery_status().ok();
    recovery_s_.push_back((NowUs() - t0) / 1e6);
    if (!ok) ++recovery_failures_;
    if (r == 0) {
      for (const auto& m : e.metrics().Collect()) {
        if (m.name.rfind("recovery.", 0) == 0) {
          counters_[m.name] = static_cast<uint64_t>(m.value);
        }
      }
    }
  }
}

void Run::Reference() {
  // Full re-evaluation is the slow, independent path: the queries are
  // split over up to four synchronous engines replaying in parallel.
  const size_t nq = w_.queries.size();
  const size_t groups = std::min<size_t>(4, nq);
  const size_t n = w_.Ticks();
  ref_.assign(nq, {});
  std::vector<std::vector<uint64_t>> keys(nq);
  std::vector<uint64_t> problems(groups, 0);
  std::vector<std::thread> threads;
  for (size_t g = 0; g < groups; ++g) {
    threads.emplace_back([&, g] {
      Workload sub = w_;  // shares the input batches
      sub.queries.clear();
      std::vector<size_t> idx;
      for (size_t q = g; q < nq; q += groups) {
        sub.queries.push_back(w_.queries[q]);
        idx.push_back(q);
      }
      EngineOptions eo;
      eo.scheduler_workers = 0;
      eo.enable_sharing = false;
      auto inst = SetUp(sub, eo, ExecMode::kFullReeval);
      // Only streams this group reads: a full stream nobody reads refuses
      // pushes.
      std::vector<bool> read(sub.streams.size(), false);
      for (const QuerySpec& q : sub.queries) {
        for (int s : q.streams) read[s] = true;
      }
      for (size_t t = 0; t < n; ++t) {
        for (size_t s = 0; s < sub.streams.size(); ++s) {
          const auto* batch = sub.streams[s].BatchAt(t);
          if (read[s] && batch != nullptr &&
              !inst->engine->PushColumns(sub.streams[s].name, *batch).ok()) {
            ++problems[g];
          }
        }
        inst->engine->Pump();
      }
      for (size_t i = 0; i < idx.size(); ++i) {
        QueryState& st = *inst->states[i];
        std::lock_guard<std::mutex> lock(st.mu);
        if (st.sums.size() != ExpectedAfter(trig_[idx[i]], n)) ++problems[g];
        ref_[idx[i]] = st.sums;
        keys[idx[i]] = st.key_sums;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint64_t p : problems) reference_problems_ += p;

  // The accident query also answers to the offline Linear Road oracle.
  for (size_t q = 0; q < nq; ++q) {
    if (!w_.queries[q].lr_accidents) continue;
    const auto accidents = dc::workload::ReferenceAccidents(
        w_.lr[w_.queries[q].streams[0]], 30, 10);
    const int64_t slide_sec = w_.queries[q].slide / 1000000;
    for (size_t k = 0; k < keys[q].size(); ++k) {
      uint64_t sum = 0, rows = 0;
      const auto it = accidents.find(static_cast<int64_t>(k + 1) * slide_sec);
      if (it != accidents.end()) {
        for (const auto& [x, d, s] : it->second) {
          sum += IntRowHash({x, d, s});
          ++rows;
        }
      }
      if (CombineRows(sum, rows) != keys[q][k]) ++accident_mismatches_;
    }
  }
}

void Run::Verify() {
  if (args_.corrupt_emission && !captures_.empty() &&
      !captures_[0].sums[0].empty()) {
    captures_[0].sums[0][0] ^= 1;  // self-test: one corrupted emission
  }
  for (const PhaseCapture& c : captures_) {
    refused_ += c.refused_pushes;
    for (size_t q = 0; q < c.sums.size(); ++q) {
      const size_t want = ExpectedAfter(trig_[q], c.ticks);
      const size_t got = c.sums[q].size();
      expected_ += want;
      if (got < want) missing_ += want - got;
      if (got > want) wrong_ += got - want;
      for (size_t k = 0; k < std::min(want, got); ++k) {
        if (k >= ref_[q].size() || c.sums[q][k] != ref_[q][k]) ++wrong_;
      }
    }
  }
}

std::string Json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += StrFormat("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                   i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                   ms[i].unit.c_str());
  }
  return s + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& ms) {
  printf("\n%s\n", title);
  for (const Metric& m : ms) {
    printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Run::Main() {
  // The pre-generated input is resident before any engine exists; peak
  // RSS is reported above it, so it tracks what the engine holds.
  const double input_rss_mb = ProcStatusMb("VmRSS");
  std::filesystem::create_directories(args_.out_dir);
  if (args_.trace) {
    // Untraced baseline for the tracing-overhead ratio.
    Synchronous(w_.cycles * w_.reps, &untraced_sync_rows_s_, false);
    traced_ = true;
  }
  double mark = NowUs();
  auto lap = [&](const std::string& what) {
    const double now = NowUs();
    auto it = std::find_if(phase_s_.begin(), phase_s_.end(),
                           [&](const auto& p) { return p.first == what; });
    if (it == phase_s_.end()) it = phase_s_.insert(phase_s_.end(), {what, 0});
    it->second += (now - mark) / 1e6;
    mark = now;
  };
  for (int c = 0; c < w_.cycles; ++c) {
    // Set-up alone takes milliseconds. A few more after every repetition
    // spread the set-ups over the whole run, for a steady median.
    for (int r = 0; r < w_.reps; ++r) {
      ClosedLoop();
      lap("closed loop");
      SetUps(kSetUpsPerRep);
      lap("set-up");
      Synchronous(1, &sync_rows_s_, true);
      lap("synchronous");
      SetUps(kSetUpsPerRep);
      lap("set-up");
    }
    OpenLoop(c + 1 == w_.cycles);
    lap("open loop");
  }
  traced_ = false;
  Recover();
  lap("recovery");
  peak_rss_mb_ = ProcStatusMb("VmHWM") - input_rss_mb;
  Reference();
  lap("reference");
  Verify();
  std::filesystem::remove_all(args_.out_dir + "/durable");

  const uint64_t adhoc_n = adhoc_ms_.size();
  const uint64_t attempted = expected_ + adhoc_n;
  const uint64_t failed = missing_ + wrong_ + refused_ + late_ +
                          adhoc_errors_ + adhoc_wrong_ + adhoc_late_ +
                          checkpoint_errors_ + recovery_failures_ +
                          accident_mismatches_ + reference_problems_;
  const bool correct = wrong_ == 0 && adhoc_wrong_ == 0 &&
                       accident_mismatches_ == 0 && reference_problems_ == 0;
  const double failed_ratio =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;

  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s_), "s"},
      {"throughput_rows_s", Median(closed_rows_s_), "rows/s"},
      {"throughput_1t_rows_s", Median(sync_rows_s_), "rows/s"},
      {"latency_p50_ms", Median(latency_ms_), "ms"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
  };
  // Metrics of one workload only (0 on the others), or zero by design;
  // README.md explains why they are not end-to-end metrics.
  const std::vector<Metric> own = {
      {"failed_ratio", failed_ratio, "ratio"},
      {"recovery_s", Median(recovery_s_), "s"},
      {"adhoc_p50_ms", Quantile(adhoc_ms_, 0.50), "ms"},
      {"adhoc_p99_ms", Quantile(adhoc_ms_, 0.99), "ms"},
      {"adhoc_qps",
       adhoc_secs_ > 0 ? static_cast<double>(adhoc_n) / adhoc_secs_ : 0,
       "1/s"},
  };

  // Per-layer metrics measured here (analyze_trace.py adds the
  // span-derived ones).
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    layer_.push_back({name, v, unit});
  };
  // How late the generator ran. On netmon it shows checkpoint stalls;
  // elsewhere it is mostly the host's timer jitter, too irreproducible
  // for an end-to-end bound.
  add("send_lag_p99_ms", Quantile(lag_ms_, 0.99), "ms");
  // The latency tail follows the host's scheduling stalls more than the
  // engine, too irreproducible for an end-to-end bound. The median over
  // segments keeps a burst of stalls in one segment from moving it.
  add("latency_p99_ms", Median(segment_p99_ms_), "ms");
  add("basket.push_us.p50", Quantile(push_us_, 0.50), "us");
  add("basket.push_us.p99", Quantile(push_us_, 0.99), "us");
  add("basket.stall_ms", Median(stall_ms_), "ms");
  add("basket.resident_hwm_rows", Median(resident_hwm_), "count");
  add("basket.memory_hwm_mb", Median(memory_hwm_mb_), "MB");
  add("basket.readers", Median(readers_), "count");
  double submit = 0;
  for (double ms : submit_ms_) submit += ms;
  add("plan.submit_ms", submit_ms_.empty() ? 0 : submit / submit_ms_.size(), "ms");
  for (const char* shape : {"table_groupby", "basket_groupby", "basket_join"}) {
    const double compile = Median(compile_shape_us_[shape]);
    const double query = Median(adhoc_shape_us_[shape]);
    add(StrFormat("plan.compile_us.%s", shape), compile, "us");
    add(StrFormat("exec.adhoc_us.%s", shape),
        query > compile ? query - compile : 0, "us");
  }
  const double pushed = static_cast<double>(w_.RowsInTicks(w_.open_loop_ticks));
  add("wal.bytes_per_row", counters_["wal.bytes"] / pushed, "B");
  add("wal.records", counters_["wal.records"], "count");
  add("wal.syncs", counters_["wal.syncs"], "count");
  add("wal.truncations", counters_["wal.truncations"], "count");
  add("wal.checkpoint_ms.p50", Median(checkpoint_ms_), "ms");
  add("wal.checkpoint_ms.max", Quantile(checkpoint_ms_, 1.0), "ms");
  add("snapshot.bytes", counters_["snapshot.bytes"], "B");
  add("recovery.replayed_records", counters_["recovery.replayed_records"], "count");
  add("recovery.replayed_rows", counters_["recovery.replayed_rows"], "count");
  const double untraced = Median(untraced_sync_rows_s_);
  add("monitor.trace_overhead_ratio",
      untraced > 0 ? Median(sync_rows_s_) / untraced : 0, "ratio");
  std::vector<double> gaps;
  for (size_t q = 0; q < w_.queries.size(); ++q) {
    gaps.push_back(Median(query_latency_ms_[q]) -
                   engine_latency_p50_ms_[w_.queries[q].name]);
  }
  add("monitor.latency_gap_ms", Median(gaps), "ms");
  layer_.insert(layer_.end(), own.begin(), own.end());

  printf("dcbench %s: seed %llu, %.1f s, %s build, %u cpus, rev %s%s\n",
         w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
         args_.seconds, DCBENCH_BUILD_TYPE,
         std::thread::hardware_concurrency(), args_.rev.c_str(),
         args_.trace ? ", traced" : "");
  printf("%d cycles of: %d x (closed loop %zu ticks, synchronous %zu "
         "ticks), open loop %zu ticks of %lld us at %.0f rows/s; latency "
         "limit %.1f ms\n",
         w_.cycles, w_.reps, w_.closed_loop_ticks, w_.sync_ticks,
         w_.open_loop_ticks, static_cast<long long>(w_.tick_us),
         w_.OpenLoopRowsPerSec(),
         static_cast<double>(w_.latency_limit_us) / 1e3);
  std::string phases;
  for (const auto& [name, secs] : phase_s_) {
    phases += StrFormat("%s%s %.2f s", phases.empty() ? "" : ", ",
                        name.c_str(), secs);
  }
  printf("phases: %s\n", phases.c_str());
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += StrFormat("%s%.4g", out.empty() ? "" : " ", x);
    return out;
  };
  printf("repetitions: closed loop rows/s [%s], synchronous rows/s [%s], "
         "setup s [%s]\n",
         list(closed_rows_s_).c_str(), list(sync_rows_s_).c_str(),
         list(setup_s_).c_str());
  printf("results: %llu expected, %llu missing, %llu wrong, %llu late, "
         "%llu refused pushes, %llu one-time queries (%llu errors, %llu "
         "wrong), %llu accident mismatches, %llu reference problems -> %s\n",
         static_cast<unsigned long long>(expected_),
         static_cast<unsigned long long>(missing_),
         static_cast<unsigned long long>(wrong_),
         static_cast<unsigned long long>(late_),
         static_cast<unsigned long long>(refused_),
         static_cast<unsigned long long>(adhoc_n),
         static_cast<unsigned long long>(adhoc_errors_),
         static_cast<unsigned long long>(adhoc_wrong_),
         static_cast<unsigned long long>(accident_mismatches_),
         static_cast<unsigned long long>(reference_problems_),
         correct ? "correct" : "WRONG RESULTS");
  PrintTable(args_.trace ? "end-to-end (traced run; compare untraced runs only)"
                         : "end-to-end",
             e2e);
  PrintTable("workload-specific", own);
  PrintTable("per-layer", layer_);

  details_.push_back(StrFormat(
      "\"failures\": {\"missing\": %llu, \"wrong\": %llu, \"late\": %llu, "
      "\"refused\": %llu, \"adhoc_errors\": %llu, \"adhoc_wrong\": %llu, "
      "\"adhoc_late\": %llu, \"checkpoint_errors\": %llu, "
      "\"recovery_failures\": %llu}, \"latency_max_ms\": %.3f",
      static_cast<unsigned long long>(missing_),
      static_cast<unsigned long long>(wrong_),
      static_cast<unsigned long long>(late_),
      static_cast<unsigned long long>(refused_),
      static_cast<unsigned long long>(adhoc_errors_),
      static_cast<unsigned long long>(adhoc_wrong_),
      static_cast<unsigned long long>(adhoc_late_),
      static_cast<unsigned long long>(checkpoint_errors_),
      static_cast<unsigned long long>(recovery_failures_),
      Quantile(latency_ms_, 1.0)));
  std::string details = "{";
  for (size_t i = 0; i < details_.size(); ++i) {
    details += (i ? ", " : "") + details_[i];
  }
  details += "}";
  printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"stamp\": {\"build_type\": \"%s\", \"num_cpus\": %u, \"rev\": \"%s\", "
      "\"open_loop_rows_s\": %.1f, \"tick_us\": %lld, \"cycles\": %d, "
      "\"open_loop_ticks\": %zu, "
      "\"reps\": %d, \"closed_loop_ticks\": %zu, \"sync_ticks\": %zu, "
      "\"latency_limit_ms\": %.3f, "
      "\"latency_samples\": %zu, \"lag_samples\": %zu, \"adhoc_samples\": "
      "%llu}, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"workload_metrics\": %s, \"layer\": %s, "
      "\"details\": %s}\n",
      w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
      args_.seconds, args_.trace ? 1 : 0, DCBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), args_.rev.c_str(),
      w_.OpenLoopRowsPerSec(), static_cast<long long>(w_.tick_us), w_.cycles,
      w_.open_loop_ticks, w_.reps, w_.closed_loop_ticks, w_.sync_ticks,
      static_cast<double>(w_.latency_limit_us) / 1e3, latency_ms_.size(),
      lag_ms_.size(), static_cast<unsigned long long>(adhoc_n),
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), Json(e2e).c_str(),
      Json(own).c_str(), Json(layer_).c_str(), details.c_str());
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace dcbench

int main(int argc, char** argv) {
  using dcbench::Args;
  Args args;
  for (int i = 1; i + 1 < argc || (i < argc && argv[i][0] == '-'); ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-emission") {
      args.corrupt_emission = true;
      continue;
    }
    if (i + 1 >= argc) dcbench::Fatal("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = v == "1";
    } else if (flag == "--out") {
      args.out_dir = v;
    } else if (flag == "--rev") {
      args.rev = v;
    } else {
      dcbench::Fatal("unknown flag " + flag);
    }
  }
  if (std::string(DCBENCH_BUILD_TYPE) != "Release") {
    dcbench::Fatal(std::string("refusing to record numbers from a ") +
                   DCBENCH_BUILD_TYPE + " build; configure with Release");
  }
  if (args.seconds <= 0) dcbench::Fatal("--seconds must be positive");
  // Fixed allocator thresholds: glibc otherwise raises its mmap threshold
  // as large blocks are freed, so the same work gets faster as the process
  // ages. Fixing it up front puts every phase in the steady state a
  // long-running engine reaches.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
  dcbench::Workload w;
  if (!dcbench::MakeWorkload(args.workload, args.seed, args.seconds, &w)) {
    dcbench::Fatal("unknown workload '" + args.workload + "'");
  }
  dcbench::Run run(std::move(args), std::move(w));
  return run.Main();
}
