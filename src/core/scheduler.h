// Copyright 2026 The DataCell Authors.
//
// Scheduler: the Petri-net execution model (paper §3, "Scheduler").
// Baskets are places, factories are transitions; a transition is enabled
// when its firing probe (Factory::CheckReady) holds — i.e. there are
// tuples relevant to the waiting query.
//
// The net's arcs are explicit: AttachArc(basket, factory) subscribes a
// factory to a basket's data-arrival pulses, and each pulse enqueues
// exactly the subscribed factories — never the whole factory list — onto
// one FIFO ready queue that every worker pops. A factory is queued at most
// once. A reader/writer lock guards the factory/arc registry; one
// scheduler mutex guards the queue, every entry's claim state and the
// worker pool, so the hot path takes the registry shared plus that mutex.
//
// Two driving modes:
//  * threaded: Start() launches N workers that fire enabled transitions
//    concurrently (a factory never fires concurrently with itself — the
//    per-entry state machine hands each factory to exactly one worker);
//  * manual:   DrainReady() synchronously fires until quiescence, in
//    factory-id order — deterministic driving for tests and
//    single-threaded experiments. Both modes share the claim/complete
//    state machine, so they can safely run concurrently with
//    AddFactory/RemoveFactory.
//
// A pulse enqueues a subscribed factory without probing it (probing takes
// the factory lock, which must not nest inside scheduler locks — see
// below); the popping worker runs the probe and drops not-ready entries.
// Such drops are counted as `spurious_pops` — cheap, and the price of
// keeping producers out of factory locks.
//
// Wakeups cannot be lost: an enqueue and a worker's "queue is empty"
// check both run under the scheduler mutex, and an idle worker waits on
// the one work condvar only after that check.
//
// Lock ordering (deadlock-freedom invariant): the scheduler owns two
// consecutive ranks of the engine lock hierarchy, acquired in the order
//   registry lock (reg_mu_)  ->  scheduler mutex (mu_)
// — see docs/CONCURRENCY.md for the full ranked table, which the debug
// lock validator enforces at runtime. Factory::CheckReady()/Fire() are
// only ever called with NO scheduler lock held: a firing factory appends
// to its output basket, whose pulse listeners re-enter the scheduler
// (Pulse -> reg_mu_ -> mu_).
//
// Lifetime: baskets passed to AttachArc must outlive the scheduler (the
// destructor unregisters its pulse listeners from them). Engine satisfies
// this by declaring the scheduler after the basket map.

#ifndef DATACELL_CORE_SCHEDULER_H_
#define DATACELL_CORE_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "util/sync.h"

namespace dc {

/// The ready queue's depth (see SchedulerStats::shards).
struct SchedulerQueueStats {
  /// Ready-queue length at snapshot time.
  uint64_t queue_depth = 0;
  /// Largest queue length observed since construction.
  uint64_t max_queue_depth = 0;
};

/// Scheduler statistics (monitor pane; snapshot via Stats()).
struct SchedulerStats {
  /// Factory firings actually performed (threaded workers + DrainReady).
  uint64_t fires = 0;
  /// Distinct data-arrival pulses: one per basket append / heartbeat /
  /// seal on a basket with attached arcs. NOT per-worker wakeups and NOT
  /// per-factory enablements — a pulse that enables five factories still
  /// counts once.
  uint64_t notifications = 0;
  /// Of the fires, how many returned a non-OK Status.
  uint64_t fire_errors = 0;
  /// Ready-queue pushes: targeted enablements. One factory is queued at
  /// most once, so enqueues <= pulses it received.
  uint64_t enqueues = 0;
  /// Pops whose firing probe said not-ready: the pulse that enqueued the
  /// factory did not actually enable it (e.g. a window not yet complete).
  uint64_t spurious_pops = 0;
  /// Ready-queue length at snapshot time, and the largest since
  /// construction.
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth = 0;
  /// Registered factories and live (basket, factory) arcs — the lifecycle
  /// tests assert both return to zero after query churn.
  uint64_t factories = 0;
  uint64_t arcs = 0;
  /// Always 0: every worker pops the one ready queue, so there is nothing
  /// to steal. Kept, with `shards`, because perfbench reports
  /// `scheduler.steals` and the largest `shards[i].max_queue_depth`.
  uint64_t steals = 0;
  /// Exactly one entry: the ready queue.
  std::vector<SchedulerQueueStats> shards;
};

/// Petri-net scheduler over the registered factories.
class Scheduler {
 public:
  /// `num_workers` threads fire factories once Start() runs; with 0,
  /// only DrainReady() fires.
  explicit Scheduler(int num_workers = 2);
  ~Scheduler();

  /// Registers the factory (keyed by its id, which must be unique) and
  /// gives it an initial targeted kick — a from-start reader may already
  /// be enabled. Attach arcs before AddFactory so no pulse is missed.
  void AddFactory(FactoryPtr factory);
  /// Unlinks the factory and its arcs; blocks until any in-flight Fire()
  /// completes and removes a still-queued entry from the ready queue, so
  /// a busy or queued entry is never destroyed mid-flight. Must not be
  /// called from inside a Fire() (e.g. an emitter sink) — that would
  /// self-deadlock.
  void RemoveFactory(int factory_id);
  std::vector<FactoryPtr> Factories() const;

  /// Subscribes factory `factory_id` to `basket`'s data-arrival pulses
  /// (the Petri-net arc place -> transition). Registers one pulse
  /// listener per basket, shared by all its arcs; idempotent per
  /// (basket, factory) pair. The basket must outlive this scheduler.
  /// Arcs are detached by RemoveFactory / the destructor.
  void AttachArc(Basket* basket, int factory_id);

  /// Targeted kick for one factory (resume, registration). Does not
  /// count as a data-arrival pulse.
  void NotifyFactory(int factory_id);

  /// Launches the worker pool (idempotent).
  void Start();
  /// Stops and joins the workers.
  void Stop();

  /// Manual mode: fires enabled factories until none are ready, in
  /// factory-id order. Returns the number of firings performed.
  int DrainReady();

  /// True if some factory is currently enabled or firing. A queued but
  /// not-enabled entry (a spurious pulse) does not count.
  bool AnyBusyOrReady() const;

  SchedulerStats Stats() const;

 private:
  /// Claim state of one registered factory. An entry is in the ready
  /// queue iff state == kQueued (exactly once); kRunning entries are
  /// owned by one firing thread; kRemoving blocks re-enqueue while
  /// RemoveFactory unlinks the entry.
  enum class EntryState { kIdle, kQueued, kRunning, kRemoving };

  struct Entry {
    int id = 0;
    FactoryPtr factory;
    // Guarded by the scheduler's mu_, a capability of the enclosing
    // object that Clang TSA cannot name here; the rank validator and TSan
    // cover it.
    EntryState state = EntryState::kIdle;
  };

  /// Arcs of one basket plus the pulse listener that feeds them.
  struct ArcList {
    std::vector<int> factory_ids;
    int listener_id = -1;
  };

  /// Data-arrival pulse from `basket` (wired as its listener).
  void Pulse(Basket* basket);
  /// kIdle -> kQueued at the back of the ready queue; false if absent or
  /// not idle.
  bool EnqueueIfIdleLocked(int factory_id) DC_REQUIRES_SHARED(reg_mu_)
      DC_REQUIRES(mu_);
  /// Wakes one idle worker per newly queued entry.
  void WakeWorkers(int newly_queued);
  /// Claims a specific factory for DrainReady (kIdle or kQueued ->
  /// kRunning, unlinking a queued entry from the ready queue); null if it
  /// is absent, running or being removed.
  Entry* TryClaim(int factory_id);
  /// kRunning -> kIdle, records stats, wakes remove waiters; optionally
  /// re-enqueues the factory if its probe still holds (threaded workers;
  /// DrainReady re-scans instead). `e` must not be touched after its
  /// state leaves kRunning: RemoveFactory may then destroy it.
  void CompleteFire(Entry* e, bool fired, bool error, bool requeue);
  void WorkerLoop();

  const int num_workers_;

  /// Registration bookkeeping: the factory registry and the basket arcs.
  /// Hot-path readers take it shared; AddFactory/RemoveFactory/AttachArc
  /// take it unique. Never held across CheckReady()/Fire(). Entries are
  /// heap-allocated, so an Entry* stays valid until RemoveFactory erases
  /// it — which it does only once the entry is neither queued nor
  /// running.
  mutable SharedMutex reg_mu_{LockRank::kSchedRegistry};
  // Id-ordered map so DrainReady fires deterministically.
  std::map<int, std::unique_ptr<Entry>> entries_ DC_GUARDED_BY(reg_mu_);
  std::map<Basket*, ArcList> arcs_ DC_GUARDED_BY(reg_mu_);

  /// The scheduler mutex: the ready queue, every Entry::state, the stats
  /// and the worker pool.
  mutable Mutex mu_{LockRank::kSchedQueue};
  /// Idle workers wait here for a non-empty queue (or stop_).
  CondVar work_cv_;
  /// Signalled when a fire completes or the pool finishes stopping:
  /// RemoveFactory and a concurrent Stop() wait here, never on work_cv_,
  /// so a one-worker wakeup cannot land on them.
  CondVar done_cv_;
  std::deque<Entry*> ready_ DC_GUARDED_BY(mu_);
  /// Fire and queue counters; Stats() fills in the rest.
  SchedulerStats stats_ DC_GUARDED_BY(mu_);
  bool running_ DC_GUARDED_BY(mu_) = false;
  bool stop_ DC_GUARDED_BY(mu_) = false;
  /// True while one Stop() is joining workers; a concurrent Stop() waits
  /// for it instead of double-joining the same threads.
  bool stopping_ DC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ DC_GUARDED_BY(mu_);

  std::atomic<uint64_t> notifications_{0};
};

}  // namespace dc

#endif  // DATACELL_CORE_SCHEDULER_H_
