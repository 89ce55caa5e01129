#include "core/engine.h"

#include "monitor/trace.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dc {

namespace {

// Canonical sharing keys (docs/SHARING.md). The prefix key identifies a
// shareable fragment build: prefix signature, masked-out literal values,
// and execution mode — window geometry deliberately excluded so window
// subsumption can serve several geometries from one node. The full key
// adds the finish signature and the exact geometry: two queries with
// equal full keys are the same factory.
void SharingKeys(const plan::CompiledQuery& cq, ExecMode mode,
                 std::string* prefix_key, std::string* full_key) {
  std::string params;
  for (const std::string& p : cq.sig_params) {
    params += p;
    params += '\x1f';
  }
  *prefix_key = cq.prefix_signature + '\x1e' + params + '\x1e' +
                ExecModeName(mode);
  std::string geom;
  for (const plan::BoundRelation& rel : cq.bound.rels) {
    if (rel.window.has_value()) {
      geom += rel.window->ToString();
      geom += ';';
    }
  }
  *full_key = *prefix_key + '\x1e' + cq.finish_signature + '\x1e' + geom;
}

// The stream relation a query's SharedWindowNode reads (docs/SHARING.md),
// or -1 when the query does not run on a node. Incremental queries over
// one windowed stream (plus any table) whose window divides run on one —
// the rule the compiler's classification and the factory share
// (plan::IncrementalEligible).
int NodeStreamRel(const plan::BoundQuery& q, ExecMode mode) {
  if (mode != ExecMode::kIncremental || q.NumStreams() != 1) return -1;
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (!q.rels[r].is_stream) continue;
    const std::optional<plan::WindowSpec>& w = q.rels[r].window;
    return w.has_value() && plan::IncrementalEligible({&*w})
               ? static_cast<int>(r)
               : -1;
  }
  return -1;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      scheduler_(options.scheduler_workers) {
  if (options_.enable_tracing) trace::AddEnableRef();
  if (!options_.durability.dir.empty()) {
    wal_env_ = options_.durability.env != nullptr ? options_.durability.env
                                                  : storage::WalEnv::Default();
    wal_counters_.records = metrics_.GetCounter("wal.records");
    wal_counters_.bytes = metrics_.GetCounter("wal.bytes");
    wal_counters_.syncs = metrics_.GetCounter("wal.syncs");
    wal_counters_.truncations = metrics_.GetCounter("wal.truncations");
    snapshot_writes_ = metrics_.GetCounter("snapshot.writes");
    snapshot_bytes_ = metrics_.GetCounter("snapshot.bytes");
    replayed_records_ = metrics_.GetCounter("recovery.replayed_records");
    replayed_rows_ = metrics_.GetCounter("recovery.replayed_rows");
    recovery_runs_ = metrics_.GetCounter("recovery.runs");
    // Recovery runs before the scheduler threads exist, so the replay is
    // single-threaded and deterministic; Pump() stands in for workers.
    recovering_ = true;
    recovery_status_ = InitDurability();
    recovering_ = false;
    restore_node_origins_.clear();
    if (!recovery_status_.ok()) {
      // Refuse partial recovery: run transient rather than append to logs
      // that could not be read back (docs/DURABILITY.md).
      DC_LOG(kError) << "durability disabled, recovery failed: "
                     << recovery_status_.ToString();
      wal_env_ = nullptr;
      catalog_wal_.reset();
    }
  }
  if (options_.scheduler_workers > 0) scheduler_.Start();
  if (wal_env_ != nullptr && options_.durability.checkpoint_interval_ms > 0 &&
      options_.scheduler_workers > 0) {
    ckpt_thread_ = std::thread(&Engine::CheckpointLoop, this);
  }
}

Engine::~Engine() {
  // The checkpoint thread walks every other subsystem; stop it before
  // touching any of them.
  if (ckpt_thread_.joinable()) {
    {
      MutexLock lock(ckpt_mu_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.NotifyAll();
    ckpt_thread_.join();
  }
  scheduler_.Stop();
  // Take ownership of the threaded components under mu_, then stop them
  // OUTSIDE it: Stop() joins threads whose sinks may re-enter the engine,
  // which would deadlock against a held mu_.
  std::map<int, std::unique_ptr<Receptor>> receptors;
  std::vector<std::shared_ptr<Emitter>> emitters;
  {
    MutexLock lock(mu_);
    receptors = std::move(receptors_);
    receptors_.clear();
    for (auto& [id, q] : queries_) {
      if (q.emitter) emitters.push_back(q.emitter);
    }
  }
  for (auto& [id, r] : receptors) r->Stop();
  for (auto& e : emitters) e->Stop();
  // Graceful shutdown keeps the full logs: force the unsynced WAL tails
  // durable so a restart replays everything (fsync=kInterval/kNever lose
  // the tail only on a crash, never on a clean destructor).
  if (wal_env_ != nullptr) {
    if (catalog_wal_ != nullptr) (void)catalog_wal_->Sync();
    MutexLock lock(mu_);
    for (auto& [name, w] : basket_wals_) (void)w->Sync();
  }
  // After everything that might record spans has stopped.
  if (options_.enable_tracing) trace::ReleaseEnableRef();
}

Status Engine::Execute(std::string_view sql) {
  DC_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                      sql::ParseScript(sql));
  for (const sql::Statement& stmt : stmts) {
    DC_RETURN_NOT_OK(ExecuteOne(stmt));
  }
  // Logged as ONE record on full success. Caveat (docs/DURABILITY.md): a
  // multi-statement script that fails midway logs nothing, so statements
  // that DID apply before the failure are not replayed — submit scripts
  // one statement at a time if partial-failure durability matters.
  // Append failures are logged, not propagated (same treatment as
  // kSubmit/kRemove): every statement already applied, and failing the
  // call would report an error for DDL that is live.
  if (wal_env_ != nullptr && !recovering_) {
    const Status s = catalog_wal_->Append(storage::EncodeStatement(sql));
    if (!s.ok()) {
      DC_LOG(kWarn) << "catalog WAL append failed: " << s.ToString();
    }
  }
  return Status::OK();
}

Status Engine::ExecuteOne(const sql::Statement& stmt) {
  if (std::holds_alternative<sql::CreateStmt>(stmt)) {
    const auto& create = std::get<sql::CreateStmt>(stmt);
    Schema schema;
    for (const auto& [name, type] : create.columns) {
      DC_RETURN_NOT_OK(schema.AddColumn(name, type));
    }
    if (!create.is_stream) {
      DC_RETURN_NOT_OK(catalog_.RegisterTable(
          std::make_shared<Table>(create.name, schema)));
      return Status::OK();
    }
    StreamDef def;
    def.name = create.name;
    def.schema = schema;
    for (size_t i = 0; i < schema.NumColumns(); ++i) {
      if (schema.column(i).type == TypeId::kTs) {
        def.ts_column = i;
        break;  // first TS column is the event time
      }
    }
    DC_RETURN_NOT_OK(catalog_.RegisterStream(def));
    auto basket = std::make_shared<Basket>(create.name, schema, def.ts_column,
                                           options_.basket_limits,
                                           basket_trim_us_);
    // No broadcast listener here: the scheduler attaches a targeted arc
    // per continuous query reading this basket (SubmitContinuous).
    {
      MutexLock lock(mu_);
      baskets_[create.name] = basket;
    }
    // A fresh stream opens its WAL immediately; during recovery the
    // writer/hooks attach only after the replay (InitDurability), so
    // replayed appends are not re-logged.
    if (wal_env_ != nullptr && !recovering_) {
      DC_RETURN_NOT_OK(AttachStreamWal(create.name, basket));
    }
    return Status::OK();
  }
  if (std::holds_alternative<sql::InsertStmt>(stmt)) {
    const auto& insert = std::get<sql::InsertStmt>(stmt);
    if (catalog_.IsStream(insert.table)) {
      for (const auto& row : insert.rows) {
        DC_RETURN_NOT_OK(PushRow(insert.table, row));
      }
      return Status::OK();
    }
    DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(insert.table));
    for (const auto& row : insert.rows) {
      DC_RETURN_NOT_OK(table->AppendRow(row));
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "Execute() handles DDL/DML; use Query() or SubmitContinuous() for "
      "SELECT");
}

Result<ColumnSet> Engine::RunSelect(const sql::SelectStmt& stmt) {
  DC_ASSIGN_OR_RETURN(plan::BoundQuery bound, plan::Bind(stmt, catalog_));
  for (const plan::BoundRelation& rel : bound.rels) {
    if (rel.window.has_value()) {
      return Status::InvalidArgument(
          "window clauses require SubmitContinuous()");
    }
  }
  plan::Optimize(&bound);
  DC_ASSIGN_OR_RETURN(plan::CompiledQuery cq,
                      plan::Compile(std::move(bound)));
  exec::QueryExecutor executor(std::move(cq));
  const plan::BoundQuery& q = executor.compiled().bound;
  std::vector<exec::StageInput> raw(q.rels.size());
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (q.rels[r].is_stream) {
      // One-time over a stream: peek at current basket contents.
      Basket* basket = GetBasket(q.rels[r].name);
      if (basket == nullptr) {
        return Status::Internal("stream basket missing");
      }
      BasketView view = basket->Read(0);
      raw[r] = exec::StageInput{std::move(view.cols), view.rows};
    } else {
      DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(q.rels[r].name));
      const TableVersionPtr snap = table->Snapshot();
      raw[r] = exec::StageInput{snap->cols, snap->NumRows()};
    }
  }
  return executor.ExecuteFull(raw);
}

Result<ColumnSet> Engine::Query(std::string_view sql) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<sql::SelectStmt>(stmt)) {
    return Status::InvalidArgument("Query() expects a SELECT");
  }
  return RunSelect(std::get<sql::SelectStmt>(stmt));
}

Result<std::string> Engine::ExplainSql(std::string_view sql,
                                       plan::PlanMode mode) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<sql::SelectStmt>(stmt)) {
    return Status::InvalidArgument("EXPLAIN expects a SELECT");
  }
  DC_ASSIGN_OR_RETURN(
      plan::BoundQuery bound,
      plan::Bind(std::get<sql::SelectStmt>(stmt), catalog_));
  plan::OptimizerReport report = plan::Optimize(&bound);
  DC_ASSIGN_OR_RETURN(plan::CompiledQuery cq,
                      plan::Compile(std::move(bound)));
  if (mode == plan::PlanMode::kOneTime || !cq.bound.is_continuous) {
    return plan::Explain(cq, mode, &report);
  }

  // Continuous plans: report what the sharing registry would do with
  // this query (docs/SHARING.md) — "shared with N queries".
  const ExecMode exec_mode = mode == plan::PlanMode::kContinuousIncremental
                                 ? ExecMode::kIncremental
                                 : ExecMode::kFullReeval;
  std::string prefix_key, full_key;
  SharingKeys(cq, exec_mode, &prefix_key, &full_key);
  plan::SharingNote note;
  note.enabled = options_.enable_sharing;
  if (note.enabled) {
    MutexLock share(share_mu_);
    if (auto it = full_entries_.find(full_key); it != full_entries_.end()) {
      note.shared_with = it->second.refs;
      note.detail = "factory-level dedup";
    } else if (const int rel = NodeStreamRel(cq.bound, exec_mode); rel >= 0) {
      const plan::BoundRelation& stream = cq.bound.rels[rel];
      if (const SharedWindowNodePtr n = FindNodeLocked(
              prefix_key, GetBasket(stream.name), *stream.window)) {
        note.shared_with = n->subscribers();
        note.detail = StrFormat("window node %s", n->label().c_str());
      }
    }
  }
  // Observed ingest→delivery latency of standing queries with this exact
  // compiled identity (merged across duplicates submitted under different
  // names). mu_ after share_mu_ matches the engine lock order.
  {
    MutexLock lock(mu_);
    Histogram merged;
    for (const auto& [id, qe] : queries_) {
      if (qe.identity_key == full_key && qe.latency != nullptr) {
        merged.Merge(qe.latency->Snapshot());
      }
    }
    if (merged.count() > 0) note.latency = merged.Summary();
  }
  return plan::Explain(cq, mode, &report, &note);
}

Result<int> Engine::SubmitContinuous(std::string_view sql) {
  return SubmitInternal(sql, ContinuousOptions{}, nullptr, nullptr);
}

Result<int> Engine::SubmitContinuous(std::string_view sql,
                                     ContinuousOptions options) {
  return SubmitInternal(sql, std::move(options), nullptr, nullptr);
}

Result<int> Engine::SubmitInternal(std::string_view sql,
                                   ContinuousOptions options,
                                   const storage::WalSubmit* restore,
                                   const storage::FactoryProgress* snap_progress) {
  DC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<sql::SelectStmt>(stmt)) {
    return Status::InvalidArgument("SubmitContinuous() expects a SELECT");
  }
  DC_ASSIGN_OR_RETURN(
      plan::BoundQuery bound,
      plan::Bind(std::get<sql::SelectStmt>(stmt), catalog_));
  if (!bound.is_continuous) {
    return Status::InvalidArgument(
        "query reads no stream; use Query() for one-time queries");
  }
  plan::Optimize(&bound);
  DC_ASSIGN_OR_RETURN(plan::CompiledQuery cq,
                      plan::Compile(std::move(bound)));
  auto executor = std::make_shared<exec::QueryExecutor>(std::move(cq));
  const plan::BoundQuery& q = executor->compiled().bound;

  QueryEntry entry;
  {
    MutexLock lock(mu_);
    entry.id = next_query_id_++;
  }
  entry.sql = std::string(sql);
  entry.mode = options.mode;
  const std::string name =
      options.name.empty() ? StrFormat("q%d", entry.id) : options.name;
  entry.name = name;

  std::string prefix_key, full_key;
  SharingKeys(executor->compiled(), options.mode, &prefix_key, &full_key);
  // Full compiled identity, recorded even with sharing off so EXPLAIN can
  // find standing queries with the same plan (entry.full_key stays empty
  // unless the query actually joined the sharing registry).
  entry.identity_key = full_key;

  // Held across all sharing decisions AND the engine/scheduler wiring
  // they produce, so a concurrent submit/remove of a matching query
  // cannot race the refcounts. Fires never take share_mu_, so a
  // RemoveFactory underneath it still drains.
  MutexLock share(share_mu_);

  // Tier F: a standing query with the same full compiled identity —
  // alias its factory; this query only adds a private emitter on the
  // shared output basket.
  if (options_.enable_sharing) {
    auto it = full_entries_.find(full_key);
    if (it != full_entries_.end()) {
      SharedFullEntry& fe = it->second;
      // Recovery: the founding replay restored the shared factory from
      // ITS record, which is stale submit-time origins whenever the
      // founder was removed before the last checkpoint (a removed token
      // has no snapshot entry) — possibly below the WAL truncation
      // floor. An aliasing token that IS in the snapshot re-applies the
      // checkpoint cut here. Safe: nothing fires during catalog replay,
      // so the factory has zero invocations. Done before any refcount or
      // emitter bookkeeping so a failure aborts the replay cleanly.
      if (restore != nullptr && snap_progress != nullptr) {
        DC_RETURN_NOT_OK(fe.factory->RestoreProgress(*snap_progress));
      }
      ++fe.refs;
      ++full_hits_;
      entry.factory = fe.factory;
      entry.out_basket = fe.out_basket;
      entry.full_key = full_key;
      // The logged progress of an aliasing submit is informational: the
      // factory is already live, so its cursors may sit past undrained
      // emissions — replay therefore never restores from an alias's
      // record, only from the snapshot (above) or the founder's record.
      return PublishQuery(std::move(entry), fe.out_names, sql, options,
                          restore, /*schedule=*/false);
    }
  }

  // Tier P: an incremental divisible window over one stream (plus any
  // table) is a merge tail of a SharedWindowNode — a grid-compatible node
  // under this prefix when sharing is on (window subsumption), else a
  // node it founds, private while nothing joins it. The node owns the
  // only basket reader; non-divisible windows keep the full-reevaluation
  // fallback (FactoryStats::fell_back_to_full).
  SharedWindowNodePtr node;
  if (const int rel = NodeStreamRel(q, options.mode); rel >= 0) {
    std::shared_ptr<Basket> stream;
    {
      MutexLock lock(mu_);
      auto bit = baskets_.find(q.rels[rel].name);
      if (bit == baskets_.end()) return Status::Internal("basket missing");
      stream = bit->second;
    }
    if (options_.enable_sharing) {
      node = FindNodeLocked(prefix_key, stream.get(), *q.rels[rel].window);
      if (node != nullptr) ++prefix_hits_;
    }
    if (node == nullptr) {
      TablePtr table;
      for (const plan::BoundRelation& r : q.rels) {
        if (!r.is_stream) {
          DC_ASSIGN_OR_RETURN(table, catalog_.GetTable(r.name));
        }
      }
      const plan::WindowSpec& w = *q.rels[rel].window;
      node = std::make_shared<SharedWindowNode>(
          StrFormat("%s#%d", q.rels[rel].name.c_str(), next_node_ord_++),
          stream, std::move(table), executor, w.rows, w.slide);
      prefix_nodes_[prefix_key].push_back(node);
      if (restore != nullptr && !restore->node_label.empty()) {
        // Node labels are allocated deterministically (next_node_ord_), so
        // an in-order replay must recreate the exact label it logged.
        if (restore->node_label != node->label()) {
          return Status::Internal(StrFormat(
              "recovery divergence: replayed submit founded node %s, log "
              "says %s",
              node->label().c_str(), restore->node_label.c_str()));
        }
        uint64_t origin = restore->node_origin;
        if (auto oit = restore_node_origins_.find(node->label());
            oit != restore_node_origins_.end()) {
          origin = oit->second;
        }
        DC_RETURN_NOT_OK(node->RestoreOrigin(origin));
      }
    }
  }

  // Wire the factory inputs (a node tail carries no reader of its own).
  std::vector<FactoryInput> inputs(q.rels.size());
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (q.rels[r].is_stream) {
      Basket* basket = GetBasket(q.rels[r].name);
      if (basket == nullptr) return Status::Internal("basket missing");
      FactoryInput in;
      in.is_stream = true;
      in.basket = basket;
      if (node == nullptr) {
        in.reader_id = basket->RegisterReader(/*from_start=*/true);
      }
      in.window = q.rels[r].window;
      inputs[r] = std::move(in);
    } else {
      DC_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(q.rels[r].name));
      FactoryInput in;
      in.table = std::move(table);
      inputs[r] = std::move(in);
    }
  }

  // Output basket: result schema.
  Schema out_schema;
  const std::vector<TypeId> out_types = exec::OutputTypes(executor->compiled());
  const std::vector<std::string>& out_names =
      executor->compiled().finish.out_names;
  for (size_t i = 0; i < out_types.size(); ++i) {
    // Result columns may repeat names; make them unique for the schema.
    std::string col = out_names[i];
    while (out_schema.Has(col)) col += "_";
    DC_RETURN_NOT_OK(out_schema.AddColumn(col, out_types[i]));
  }
  entry.out_basket = std::make_shared<Basket>(
      name + ".out", out_schema, SIZE_MAX, BasketLimits{}, basket_trim_us_);

  // Recovery: position the factory at its logged progress BEFORE the
  // scheduler can see it — a worker firing against pre-restore origins
  // would consume replayed rows the restored cursors still need. The
  // snapshot's progress (when its checkpoint covered this token) wins
  // over the submit-time cursors in the kSubmit record.
  const int node_sub = node != nullptr ? node->Subscribe() : -1;
  Result<FactoryPtr> made =
      Factory::Create(entry.id, name, executor, options.mode,
                      std::move(inputs), entry.out_basket, node, node_sub);
  Status st = made.status();
  if (st.ok() && restore != nullptr) {
    storage::FactoryProgress p;
    if (snap_progress != nullptr) {
      p = *snap_progress;
    } else {
      p.origins = restore->origins;
      p.batch_cursor = restore->batch_cursor;
    }
    st = (*made)->RestoreProgress(p);
  }
  if (!st.ok()) {
    if (node != nullptr) {
      node->Unsubscribe(node_sub);
      PruneIdleNodesLocked();
    }
    return st;
  }
  entry.factory = *std::move(made);

  // Publish the factory for tier-F aliasing by later identical queries.
  if (options_.enable_sharing) {
    SharedFullEntry fe;
    fe.refs = 1;
    fe.factory = entry.factory;
    fe.out_basket = entry.out_basket;
    fe.out_names = out_names;
    full_entries_.emplace(full_key, std::move(fe));
    entry.full_key = full_key;
  }

  return PublishQuery(std::move(entry), out_names, sql, options, restore,
                      /*schedule=*/true);
}

int Engine::PublishQuery(QueryEntry entry,
                         const std::vector<std::string>& out_names,
                         std::string_view sql,
                         const ContinuousOptions& options,
                         const storage::WalSubmit* restore, bool schedule) {
  Emitter::Sink sink = options.sink;
  if (!sink) {
    entry.collector = std::make_shared<ResultCollector>();
    sink = entry.collector->AsSink();
  }
  entry.latency =
      metrics_.GetHistogram("query." + entry.name + ".latency_us");
  entry.emitter = std::make_shared<Emitter>(entry.name + ".emit",
                                            entry.out_basket, out_names,
                                            std::move(sink), entry.latency);
  if (options_.scheduler_workers > 0) entry.emitter->Start();

  // Capture the progress to log BEFORE the factory reaches the
  // scheduler: once AddFactory runs, a threaded worker may fire and
  // advance the cursors, and a post-fire cursor in the kSubmit record
  // would make replay resume past emissions that were still undrained
  // in the output basket at the crash — a permanent output gap.
  const bool log = wal_env_ != nullptr && !recovering_;
  storage::FactoryProgress logged_progress;
  if (log) logged_progress = entry.factory->SnapshotProgress();
  const SharedWindowNodePtr node = entry.factory->node();

  if (schedule) {
    // Arcs before registration so no pulse lands in the gap; the targeted
    // kick inside AddFactory covers anything that arrived before the arcs.
    for (Basket* basket : entry.factory->InputBaskets()) {
      scheduler_.AttachArc(basket, entry.id);
    }
    scheduler_.AddFactory(entry.factory);
  }
  const int id = entry.id;
  uint64_t token = 0;
  {
    MutexLock lock(mu_);
    if (wal_env_ != nullptr) {
      token = restore != nullptr ? restore->token : next_submit_token_++;
      if (token >= next_submit_token_) next_submit_token_ = token + 1;
      entry.dur_token = token;
      token_to_query_[token] = id;
    }
    queries_.emplace(id, std::move(entry));
  }
  if (log) LogSubmit(token, sql, options, logged_progress, node);
  return id;
}

void Engine::LogSubmit(uint64_t token, std::string_view sql,
                       const ContinuousOptions& options,
                       const storage::FactoryProgress& progress,
                       const SharedWindowNodePtr& node) {
  storage::WalSubmit sub;
  sub.token = token;
  sub.sql = std::string(sql);
  sub.mode = static_cast<uint8_t>(options.mode);
  sub.name = options.name;
  // The factory's progress at submit, captured before it could fire:
  // replay restores it before the factory can fire, and any advance past
  // this point is replayed from the basket WALs (or overridden by a later
  // snapshot's progress).
  sub.origins = progress.origins;
  sub.batch_cursor = progress.batch_cursor;
  if (node != nullptr) {
    sub.node_label = node->label();
    sub.node_origin = node->origin_seq();
  }
  const Status s = catalog_wal_->Append(storage::EncodeSubmit(sub));
  if (!s.ok()) {
    DC_LOG(kWarn) << "catalog WAL append failed: " << s.ToString();
  }
}

Status Engine::RemoveContinuous(int query_id) {
  QueryEntry entry;
  {
    // Refcounted teardown (docs/SHARING.md): the factory leaves the
    // scheduler only when its last subscriber unregisters, and its node
    // subscription is dropped — possibly reclaiming the node — in the
    // same critical section, so a concurrent submit cannot observe a
    // half-torn-down entry.
    MutexLock share(share_mu_);
    {
      MutexLock lock(mu_);
      auto it = queries_.find(query_id);
      if (it == queries_.end()) return Status::NotFound("no such query");
      entry = std::move(it->second);
      queries_.erase(it);
      if (entry.dur_token != 0) token_to_query_.erase(entry.dur_token);
    }
    bool last_ref = true;
    if (!entry.full_key.empty()) {
      auto it = full_entries_.find(entry.full_key);
      if (it != full_entries_.end()) {
        last_ref = --it->second.refs == 0;
        if (last_ref) full_entries_.erase(it);
      }
    }
    if (last_ref) {
      // Blocks on in-flight fires; safe under share_mu_ because fires
      // never take it.
      scheduler_.RemoveFactory(entry.factory->id());
      if (const SharedWindowNodePtr& node = entry.factory->node()) {
        node->Unsubscribe(entry.factory->node_sub());
        PruneIdleNodesLocked();
      }
    }
  }
  if (wal_env_ != nullptr && !recovering_ && entry.dur_token != 0) {
    const Status s =
        catalog_wal_->Append(storage::EncodeRemove(entry.dur_token));
    if (!s.ok()) {
      DC_LOG(kWarn) << "catalog WAL append failed: " << s.ToString();
    }
  }
  // Outside both locks: Stop() joins a thread whose sink may re-enter
  // the engine.
  if (entry.emitter) entry.emitter->Stop();
  // Unregister the query's latency series so a later query reusing the
  // name starts from a fresh histogram. Holders of the old shared_ptr
  // (none, after the emitter stopped) would keep recording harmlessly.
  metrics_.Remove("query." + entry.name + ".latency_us");
  return Status::OK();
}

SharedWindowNodePtr Engine::FindNodeLocked(const std::string& prefix_key,
                                           const Basket* basket,
                                           const plan::WindowSpec& w) const {
  auto it = prefix_nodes_.find(prefix_key);
  if (it == prefix_nodes_.end()) return nullptr;
  for (const SharedWindowNodePtr& n : it->second) {
    if (n->basket() == basket && n->Compatible(w.rows, w.slide)) return n;
  }
  return nullptr;
}

void Engine::PruneIdleNodesLocked() {
  for (auto it = prefix_nodes_.begin(); it != prefix_nodes_.end();) {
    std::erase_if(it->second, [](const SharedWindowNodePtr& n) {
      return n->subscribers() == 0;
    });
    it = it->second.empty() ? prefix_nodes_.erase(it) : std::next(it);
  }
}

SharingStats Engine::GetSharingStats() const {
  MutexLock share(share_mu_);
  SharingStats s;
  s.enabled = options_.enable_sharing;
  s.full_hits = full_hits_;
  s.prefix_hits = prefix_hits_;
  for (const auto& [key, fe] : full_entries_) {
    if (fe.refs > 1) ++s.shared_factories;
  }
  uint64_t node_hits = 0;
  for (const auto& [key, nodes] : prefix_nodes_) {
    for (const SharedWindowNodePtr& n : nodes) {
      s.nodes.push_back(n->Stats());
      node_hits += s.nodes.back().sharing_hits;
      ++s.shared_nodes;
    }
  }
  s.sharing_hits = s.full_hits + s.prefix_hits + node_hits;
  return s;
}

Status Engine::PauseQuery(int query_id) {
  FactoryPtr f = GetFactory(query_id);
  if (f == nullptr) return Status::NotFound("no such query");
  f->Pause();
  return Status::OK();
}

Status Engine::ResumeQuery(int query_id) {
  FactoryPtr f = GetFactory(query_id);
  if (f == nullptr) return Status::NotFound("no such query");
  f->Resume();
  scheduler_.NotifyFactory(query_id);
  return Status::OK();
}

Result<std::vector<ColumnSet>> Engine::TakeResults(int query_id) {
  // Snapshot shared ownership under mu_, drain outside it: the sink runs
  // inside Drain() and may re-enter the engine, and a concurrent
  // RemoveContinuous() must not destroy the emitter under the drainer.
  std::shared_ptr<ResultCollector> collector;
  std::shared_ptr<Emitter> emitter;
  {
    MutexLock lock(mu_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) return Status::NotFound("no such query");
    collector = it->second.collector;
    emitter = it->second.emitter;
  }
  if (collector == nullptr) {
    return Status::InvalidArgument(
        "query was submitted with a custom sink; results go there");
  }
  if (emitter != nullptr) emitter->Drain();
  return collector->TakeAll();
}

Status Engine::PushRow(std::string_view stream,
                       const std::vector<Value>& row) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) {
    return Status::NotFound(StrFormat("no stream named '%.*s'",
                                      static_cast<int>(stream.size()),
                                      stream.data()));
  }
  DC_RETURN_NOT_OK(basket->RefuseNulls(row));
  return basket->AppendRow(row, PushTimeout());
}

Status Engine::PushColumns(std::string_view stream,
                           const std::vector<BatPtr>& cols) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  DC_RETURN_NOT_OK(basket->RefuseNulls(cols));
  return basket->Append(cols, PushTimeout());
}

Micros Engine::PushTimeout() const {
  // In synchronous mode only the pushing thread can drain the basket (via
  // Pump()), so blocking on space would self-deadlock: fail fast with
  // ResourceExhausted instead. Threaded engines block — the scheduler's
  // drain cycle frees space.
  return options_.scheduler_workers > 0 ? Basket::kBlockForever : 0;
}

Status Engine::Heartbeat(std::string_view stream, Micros event_ts) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  basket->Heartbeat(event_ts);
  return Status::OK();
}

Status Engine::SealStream(std::string_view stream) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  basket->Seal();
  return Status::OK();
}

Result<int> Engine::AttachReceptor(std::string_view stream,
                                   Receptor::RowGen gen,
                                   Receptor::Options options) {
  Basket* basket = GetBasket(stream);
  if (basket == nullptr) return Status::NotFound("no such stream");
  MutexLock lock(mu_);
  const int id = next_receptor_id_++;
  auto receptor = std::make_unique<Receptor>(
      StrFormat("%.*s.recv%d", static_cast<int>(stream.size()),
                stream.data(), id),
      basket, std::move(gen), options);
  receptor->Start();
  receptors_.emplace(id, std::move(receptor));
  return id;
}

Status Engine::PauseReceptor(int receptor_id) {
  // Pause() blocks until the ingestion thread acknowledges; resolve the
  // receptor under mu_ but wait outside it (same pattern as WaitReceptor)
  // so other Engine calls are not stalled behind the handshake.
  Receptor* r = nullptr;
  {
    MutexLock lock(mu_);
    auto it = receptors_.find(receptor_id);
    if (it == receptors_.end()) return Status::NotFound("no such receptor");
    r = it->second.get();
  }
  r->Pause();
  return Status::OK();
}

Status Engine::ResumeReceptor(int receptor_id) {
  MutexLock lock(mu_);
  auto it = receptors_.find(receptor_id);
  if (it == receptors_.end()) return Status::NotFound("no such receptor");
  it->second->Resume();
  return Status::OK();
}

Status Engine::WaitReceptor(int receptor_id) {
  Receptor* r = nullptr;
  {
    MutexLock lock(mu_);
    auto it = receptors_.find(receptor_id);
    if (it == receptors_.end()) return Status::NotFound("no such receptor");
    r = it->second.get();
  }
  r->WaitFinished();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Durability (docs/DURABILITY.md).
// ---------------------------------------------------------------------------

Status Engine::InitDurability() {
  const EngineOptions::DurabilityOptions& d = options_.durability;
  DC_RETURN_NOT_OK(wal_env_->CreateDirs(d.dir));

  // 1. Newest complete snapshot, if any (NotFound = cold start).
  storage::SnapshotData snap;
  bool have_snap = false;
  {
    Result<storage::SnapshotData> s = storage::LoadSnapshot(d.dir);
    if (s.ok()) {
      snap = *std::move(s);
      have_snap = true;
    } else if (!s.status().IsNotFound()) {
      return s.status();
    }
  }
  std::map<uint64_t, storage::FactoryProgress> snap_progress;
  for (const storage::SnapshotQuery& q : snap.queries) {
    snap_progress[q.token] = q.progress;
  }
  for (const storage::SnapshotNode& n : snap.nodes) {
    restore_node_origins_[n.label] = n.origin_seq;
  }

  // 2. Catalog log: DDL + submits in original order. A torn tail scans
  // as a shorter valid prefix (records past it were never acknowledged
  // as durable under any fsync policy that synced them).
  const std::string cat_path = d.dir + "/catalog.wal";
  storage::WalScan cat;
  if (Result<storage::WalScan> s = storage::ReadWalFile(cat_path); s.ok()) {
    cat = *std::move(s);
  } else if (!s.status().IsNotFound()) {
    return s.status();
  }
  if (have_snap || !cat.records.empty()) recovery_runs_->Add(1);

  // 3. Replay the catalog log. CREATE STREAM additionally positions the
  // fresh basket at its WAL's head kReset (before any reader registers);
  // INSERTs into streams are skipped — their rows replay from the basket
  // WALs with exact batch boundaries and post-clamp timestamps.
  std::vector<std::string> stream_order;
  std::map<std::string, storage::WalScan> basket_scans;
  // Each basket WAL's kReset start_seq: the truncation floor. Restored
  // cursors below it would read rows the log no longer has (step 5).
  std::map<std::string, uint64_t> replay_base;
  for (const storage::WalRecord& rec : cat.records) {
    switch (rec.type) {
      case storage::WalRecordType::kStatement: {
        DC_ASSIGN_OR_RETURN(std::string stmt_sql,
                            storage::DecodeStatement(rec));
        DC_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                            sql::ParseScript(stmt_sql));
        for (const sql::Statement& stmt : stmts) {
          if (std::holds_alternative<sql::InsertStmt>(stmt) &&
              catalog_.IsStream(std::get<sql::InsertStmt>(stmt).table)) {
            continue;
          }
          DC_RETURN_NOT_OK(ExecuteOne(stmt));
          if (!std::holds_alternative<sql::CreateStmt>(stmt)) continue;
          const auto& create = std::get<sql::CreateStmt>(stmt);
          if (!create.is_stream) continue;
          stream_order.push_back(create.name);
          Result<storage::WalScan> scan =
              storage::ReadWalFile(d.dir + "/" + create.name + ".wal");
          if (!scan.ok()) {
            if (scan.status().IsNotFound()) continue;
            return scan.status();
          }
          if (scan->records.empty()) continue;
          if (scan->records[0].type != storage::WalRecordType::kReset) {
            return Status::Internal(StrFormat(
                "basket WAL %s does not start with kReset",
                create.name.c_str()));
          }
          DC_ASSIGN_OR_RETURN(storage::WalReset reset,
                              storage::DecodeReset(scan->records[0]));
          replay_base[create.name] = reset.start_seq;
          Basket* basket = GetBasket(create.name);
          if (basket == nullptr) return Status::Internal("basket missing");
          DC_RETURN_NOT_OK(basket->RestoreLogPosition(
              reset.start_seq, reset.next_ordinal, reset.watermark,
              reset.sealed));
          basket_scans[create.name] = *std::move(scan);
        }
        replayed_records_->Add(1);
        break;
      }
      case storage::WalRecordType::kSubmit: {
        DC_ASSIGN_OR_RETURN(storage::WalSubmit sub,
                            storage::DecodeSubmit(rec));
        ContinuousOptions co;
        co.mode = static_cast<ExecMode>(sub.mode);
        co.name = sub.name;
        // Original sinks are process-local and cannot be persisted;
        // recovered queries get buffered collectors (TakeResults).
        // The snapshot's progress for this token (null when the
        // checkpoint predates the submit) supersedes the submit-time
        // cursors in the record — and is the only progress applied when
        // the submit turns out to alias an already-replayed factory.
        const storage::FactoryProgress* sp = nullptr;
        if (auto it = snap_progress.find(sub.token);
            it != snap_progress.end()) {
          sp = &it->second;
        }
        DC_RETURN_NOT_OK(
            SubmitInternal(sub.sql, std::move(co), &sub, sp).status());
        replayed_records_->Add(1);
        break;
      }
      case storage::WalRecordType::kRemove: {
        DC_ASSIGN_OR_RETURN(uint64_t token, storage::DecodeRemove(rec));
        int query_id = -1;
        {
          MutexLock lock(mu_);
          auto it = token_to_query_.find(token);
          if (it == token_to_query_.end()) {
            return Status::Internal(
                StrFormat("kRemove for unknown submit token %llu",
                          static_cast<unsigned long long>(token)));
          }
          query_id = it->second;
        }
        DC_RETURN_NOT_OK(RemoveContinuous(query_id));
        replayed_records_->Add(1);
        break;
      }
      default:
        return Status::Internal("unexpected record type in catalog log");
    }
  }

  // 4. Replay basket data through the normal append path — windows,
  // join indexes, and grid partials rebuild under their own invariants.
  // Pump() after every record keeps the replay deterministic and matches
  // the batch-at-a-time cadence the differential harness drives.
  for (const std::string& name : stream_order) {
    auto sit = basket_scans.find(name);
    if (sit == basket_scans.end()) continue;
    Basket* basket = GetBasket(name);
    if (basket == nullptr) return Status::Internal("basket missing");
    const std::vector<storage::WalRecord>& records = sit->second.records;
    for (size_t i = 1; i < records.size(); ++i) {
      const storage::WalRecord& rec = records[i];
      switch (rec.type) {
        case storage::WalRecordType::kBatch: {
          DC_ASSIGN_OR_RETURN(storage::WalBatch b, storage::DecodeBatch(rec));
          if (b.begin_seq != basket->HighSeq()) {
            return Status::Internal(StrFormat(
                "basket WAL %s not contiguous: batch %llu begins at %llu, "
                "basket is at %llu",
                name.c_str(), static_cast<unsigned long long>(b.ordinal),
                static_cast<unsigned long long>(b.begin_seq),
                static_cast<unsigned long long>(basket->HighSeq())));
          }
          // Only this thread can drain during recovery: fail fast on
          // backpressure and Pump() to make space.
          Status s = basket->Append(b.cols, /*timeout_micros=*/0);
          while (s.IsResourceExhausted()) {
            if (Pump() == 0) {
              return Status::Internal(StrFormat(
                  "replay of %s stalled: basket full and nothing to pump",
                  name.c_str()));
            }
            s = basket->Append(b.cols, /*timeout_micros=*/0);
          }
          DC_RETURN_NOT_OK(s);
          replayed_rows_->Add(b.rows);
          break;
        }
        case storage::WalRecordType::kHeartbeat: {
          DC_ASSIGN_OR_RETURN(int64_t ts, storage::DecodeHeartbeat(rec));
          basket->Heartbeat(ts);
          break;
        }
        case storage::WalRecordType::kSeal:
          basket->Seal();
          break;
        default:
          return Status::Internal(StrFormat(
              "unexpected record type in basket WAL %s", name.c_str()));
      }
      replayed_records_->Add(1);
      Pump();
    }
  }
  Pump();

  // 5. The replayed data must bracket every restored cursor — a WAL that
  // scanned shorter than the progress a snapshot promised is unusable,
  // and a cursor below a WAL's kReset floor references rows truncation
  // already dropped (refuse partial recovery rather than silently
  // mis-emit either way).
  {
    MutexLock lock(mu_);
    for (const auto& [id, q] : queries_) {
      const storage::FactoryProgress p = q.factory->SnapshotProgress();
      const std::vector<FactoryInput>& inputs = q.factory->inputs();
      for (size_t r = 0; r < inputs.size() && r < p.origins.size(); ++r) {
        if (!inputs[r].is_stream) continue;
        if (p.origins[r] > inputs[r].basket->HighSeq()) {
          return Status::Internal(StrFormat(
              "query %s: restored origin %llu beyond replayed data %llu "
              "on %s",
              q.name.c_str(),
              static_cast<unsigned long long>(p.origins[r]),
              static_cast<unsigned long long>(inputs[r].basket->HighSeq()),
              inputs[r].basket->name().c_str()));
        }
        // Origins are window *anchors*, not live cursors — a long-lived
        // query keeps its submit-time anchor while truncation advances,
        // so the anchor itself may sit far below the floor. What must
        // stay above the floor is the next sequence the cursor will
        // actually read: origin + RowsWindowStart(next_emission) for
        // ROWS windows, batch_cursor for per-batch factories. RANGE
        // windows resolve reads by timestamp (clamped at the anchor from
        // below), so the floor does not constrain them.
        uint64_t base = 0;
        if (auto bit = replay_base.find(inputs[r].basket->name());
            bit != replay_base.end()) {
          base = bit->second;
        }
        uint64_t next_read = 0;
        if (!inputs[r].window.has_value()) {
          next_read = p.batch_cursor;
        } else if (inputs[r].window->rows) {
          const WindowMath wm(*inputs[r].window);
          const int64_t k = p.has_next_emission ? p.next_emission : 0;
          next_read =
              p.origins[r] + static_cast<uint64_t>(wm.RowsWindowStart(k));
        } else {
          continue;
        }
        if (next_read < base) {
          return Status::Internal(StrFormat(
              "query %s: restored cursor %llu below the WAL truncation "
              "floor %llu on %s",
              q.name.c_str(),
              static_cast<unsigned long long>(next_read),
              static_cast<unsigned long long>(base),
              inputs[r].basket->name().c_str()));
        }
      }
    }
  }

  // 6. Go live: open the catalog log for appending (truncating any torn
  // tail to the prefix we just replayed), attach writers + hooks to every
  // basket, and adopt the snapshot's horizons as the truncation floor.
  DC_ASSIGN_OR_RETURN(
      catalog_wal_,
      storage::WalWriter::Open(wal_env_, cat_path, storage::FsyncPolicy::kAlways,
                               /*fsync_interval=*/1, wal_counters_));
  std::map<std::string, std::shared_ptr<Basket>> baskets;
  {
    MutexLock lock(mu_);
    baskets = baskets_;
  }
  for (const auto& [name, basket] : baskets) {
    DC_RETURN_NOT_OK(AttachStreamWal(name, basket));
  }
  {
    MutexLock dur(dur_mu_);
    for (const storage::SnapshotBasket& b : snap.baskets) {
      last_horizons_[b.name] = b.horizon;
    }
    next_checkpoint_id_ = snap.checkpoint_id + 1;
  }
  return Status::OK();
}

Status Engine::AttachStreamWal(const std::string& name,
                               const std::shared_ptr<Basket>& basket) {
  const EngineOptions::DurabilityOptions& d = options_.durability;
  const std::string path = d.dir + "/" + name + ".wal";
  bool has_head = false;
  if (Result<storage::WalScan> scan = storage::ReadWalFile(path);
      scan.ok() && !scan->records.empty()) {
    has_head = true;
  }
  DC_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::WalWriter> writer,
      storage::WalWriter::Open(wal_env_, path, d.fsync,
                               d.fsync_interval_batches, wal_counters_));
  if (!has_head) {
    // Fresh log: declare where it starts. (Always the basket's current
    // state — zero on CREATE STREAM, the replayed position if a corrupt
    // log was truncated all the way back to its magic.)
    storage::WalReset reset;
    reset.start_seq = basket->HighSeq();
    reset.next_ordinal = basket->Stats().append_batches;
    reset.watermark = basket->EventWatermark();
    reset.sealed = basket->sealed();
    DC_RETURN_NOT_OK(writer->Append(storage::EncodeReset(reset)));
    DC_RETURN_NOT_OK(writer->Sync());
  }
  // The hooks run inside the basket lock (record order == append order)
  // and only take the writer's kWal mutex above it. Append failures
  // cannot be propagated from a hook; they are logged, and the record is
  // lost — equivalent to a crash before sync for that batch.
  storage::WalWriter* w = writer.get();
  Basket::DurabilityHooks hooks;
  hooks.on_batch = [w](const BasketBatch& b, const std::vector<BatPtr>& cols) {
    const Status s = w->Append(storage::EncodeBatch(
        b.ordinal, b.begin_seq, b.end_seq - b.begin_seq, cols));
    if (!s.ok()) {
      DC_LOG(kWarn) << "WAL append failed: " << s.ToString();
    }
  };
  hooks.on_heartbeat = [w](Micros event_ts) {
    const Status s = w->Append(storage::EncodeHeartbeat(event_ts));
    if (!s.ok()) {
      DC_LOG(kWarn) << "WAL append failed: " << s.ToString();
    }
  };
  hooks.on_seal = [w]() {
    const Status s = w->Append(storage::EncodeSeal());
    if (!s.ok()) {
      DC_LOG(kWarn) << "WAL append failed: " << s.ToString();
    }
  };
  basket->SetDurabilityHooks(std::move(hooks));
  MutexLock lock(mu_);
  basket_wals_[name] = std::move(writer);
  return Status::OK();
}

Status Engine::Checkpoint() {
  if (wal_env_ == nullptr) {
    return Status::InvalidArgument(
        "durability is not enabled (EngineOptions::durability.dir)");
  }
  MutexLock dur(dur_mu_);

  // 1. Capture the cut: per-query progress, node origins, and the basket
  // horizons the NEXT checkpoint may truncate to. Everything the captured
  // progress references was appended (and hence WAL-logged) before this
  // point.
  storage::SnapshotData data;
  data.checkpoint_id = next_checkpoint_id_++;
  std::map<std::string, uint64_t> horizons;
  std::vector<storage::WalWriter*> wals;
  {
    MutexLock share(share_mu_);
    for (const auto& [key, nodes] : prefix_nodes_) {
      for (const SharedWindowNodePtr& n : nodes) {
        data.nodes.push_back({n->label(), n->origin_seq()});
      }
    }
    MutexLock lock(mu_);
    for (const auto& [name, b] : baskets_) {
      const uint64_t horizon = b->DropHorizon();
      horizons[name] = horizon;
      data.baskets.push_back({name, horizon});
    }
    for (const auto& [id, q] : queries_) {
      if (q.dur_token == 0) continue;
      data.queries.push_back({q.dur_token, q.factory->SnapshotProgress()});
    }
    for (const auto& [name, w] : basket_wals_) wals.push_back(w.get());
  }

  // 2. Persist the WALs at least through the cut.
  DC_RETURN_NOT_OK(catalog_wal_->Sync());
  for (storage::WalWriter* w : wals) DC_RETURN_NOT_OK(w->Sync());

  // 3. Deliver everything produced before the cut, so a recovered engine
  // re-emits only at-or-after it (the harness dedups by position).
  for (const auto& e : SnapshotEmitters()) e->Drain();

  // 4. Snapshot (tmp + fsync + rotate current->prev + rename).
  DC_RETURN_NOT_OK(storage::WriteSnapshot(wal_env_, options_.durability.dir,
                                          data, snapshot_bytes_.get()));
  snapshot_writes_->Add(1);

  // 5. Truncate each basket WAL only to the PREVIOUS checkpoint's
  // horizon: if this snapshot is torn by a later crash, snapshot.prev.dc
  // still pairs with a WAL tail that covers it.
  std::vector<std::pair<storage::WalWriter*, uint64_t>> cuts;
  {
    MutexLock lock(mu_);
    for (const auto& [name, w] : basket_wals_) {
      if (auto it = last_horizons_.find(name); it != last_horizons_.end()) {
        cuts.emplace_back(w.get(), it->second);
      }
    }
  }
  for (const auto& [w, horizon] : cuts) {
    DC_RETURN_NOT_OK(w->TruncateTo(horizon));
  }
  last_horizons_ = std::move(horizons);
  return Status::OK();
}

void Engine::CheckpointLoop() {
  const int64_t interval_us =
      static_cast<int64_t>(options_.durability.checkpoint_interval_ms) *
      kMicrosPerMilli;
  while (true) {
    {
      MutexLock lock(ckpt_mu_);
      if (!ckpt_stop_) ckpt_cv_.WaitFor(ckpt_mu_, interval_us);
      if (ckpt_stop_) return;
    }
    const Status s = Checkpoint();
    if (!s.ok()) {
      DC_LOG(kWarn) << "periodic checkpoint failed: " << s.ToString();
    }
  }
}

std::vector<std::shared_ptr<Emitter>> Engine::SnapshotEmitters() const {
  std::vector<std::shared_ptr<Emitter>> emitters;
  MutexLock lock(mu_);
  emitters.reserve(queries_.size());
  for (const auto& [id, q] : queries_) {
    if (q.emitter) emitters.push_back(q.emitter);
  }
  return emitters;
}

int Engine::Pump() {
  int total = 0;
  while (true) {
    const int fires = scheduler_.DrainReady();
    // Drain outside mu_: sinks run inside Drain() and may re-enter the
    // engine (e.g. a sink that pushes derived rows into another stream).
    int drained = 0;
    for (const auto& e : SnapshotEmitters()) drained += e->Drain();
    total += fires;
    if (fires == 0 && drained == 0) break;
  }
  return total;
}

bool Engine::WaitIdle(int timeout_ms) {
  const Micros deadline = SteadyMicros() + timeout_ms * kMicrosPerMilli;
  while (SteadyMicros() < deadline) {
    if (!scheduler_.AnyBusyOrReady()) {
      // Flush emitters (outside mu_ — sinks may re-enter the engine),
      // then double-check quiescence.
      for (const auto& e : SnapshotEmitters()) e->Drain();
      if (!scheduler_.AnyBusyOrReady()) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

std::vector<ContinuousQueryInfo> Engine::Queries() const {
  MutexLock share(share_mu_);
  MutexLock lock(mu_);
  std::vector<ContinuousQueryInfo> out;
  for (const auto& [id, q] : queries_) {
    ContinuousQueryInfo info;
    info.id = id;
    info.name = q.name.empty() ? q.factory->name() : q.name;
    info.sql = q.sql;
    info.mode = q.mode;
    info.factory = q.factory->Stats();
    if (!q.full_key.empty()) {
      auto fit = full_entries_.find(q.full_key);
      if (fit != full_entries_.end()) info.shared_with = fit->second.refs;
    }
    if (const SharedWindowNodePtr& node = q.factory->node()) {
      info.shared_node = node->label();
      info.sharing = StrFormat("node %s x%d", node->label().c_str(),
                               node->subscribers());
    } else if (info.shared_with > 1) {
      info.sharing = StrFormat("factory x%d", info.shared_with);
    }
    if (q.latency != nullptr) info.latency = q.latency->Snapshot();
    if (q.emitter) info.emitter = q.emitter->Stats();
    if (q.out_basket) info.out_basket = q.out_basket->Stats();
    for (const FactoryInput& in : q.factory->inputs()) {
      if (in.is_stream) {
        info.input_streams.push_back(in.basket->name());
      } else {
        info.input_tables.push_back(in.table->name());
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

Result<BasketStats> Engine::StreamStats(std::string_view stream) const {
  MutexLock lock(mu_);
  auto it = baskets_.find(std::string(stream));
  if (it == baskets_.end()) return Status::NotFound("no such stream");
  return it->second->Stats();
}

Basket* Engine::GetBasket(std::string_view stream) {
  MutexLock lock(mu_);
  auto it = baskets_.find(std::string(stream));
  return it == baskets_.end() ? nullptr : it->second.get();
}

FactoryPtr Engine::GetFactory(int query_id) const {
  MutexLock lock(mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second.factory;
}

}  // namespace dc
