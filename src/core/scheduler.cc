#include "core/scheduler.h"

#include <algorithm>

namespace dc {

Scheduler::Scheduler(int num_workers) : num_workers_(num_workers) {}

Scheduler::~Scheduler() {
  Stop();
  // Detach pulse listeners so baskets stop calling into this object.
  // Baskets are required to outlive the scheduler (see header).
  std::vector<std::pair<Basket*, int>> listeners;
  {
    WriterLock reg(reg_mu_);
    for (auto& [basket, arcs] : arcs_) {
      if (arcs.listener_id >= 0) listeners.emplace_back(basket, arcs.listener_id);
    }
    arcs_.clear();
  }
  for (auto& [basket, listener_id] : listeners) {
    basket->RemoveListener(listener_id);
  }
}

void Scheduler::AddFactory(FactoryPtr factory) {
  const int id = factory->id();
  {
    WriterLock reg(reg_mu_);
    auto entry = std::make_unique<Entry>();
    entry->id = id;
    entry->factory = std::move(factory);
    entries_[id] = std::move(entry);
  }
  // A from-start reader may already be enabled; kick it once.
  NotifyFactory(id);
}

void Scheduler::RemoveFactory(int factory_id) {
  // Phase 1: quiesce the entry — wait out an in-flight fire and unlink a
  // queued entry from the ready queue. The wait is sliced so reg_mu_ is
  // never held across a blocking wait (a pending writer would otherwise
  // wedge the firing worker's pulse path behind us).
  while (true) {
    bool quiesced = false;
    {
      ReaderLock reg(reg_mu_);
      auto it = entries_.find(factory_id);
      if (it == entries_.end()) return;
      Entry* e = it->second.get();
      MutexLock lock(mu_);
      if (e->state == EntryState::kRunning) {
        // One 1 ms slice; the outer loop re-takes reg_mu_ and re-checks.
        done_cv_.WaitFor(mu_, 1000);
      }
      if (e->state != EntryState::kRunning) {
        if (e->state == EntryState::kQueued) std::erase(ready_, e);
        e->state = EntryState::kRemoving;  // blocks re-enqueue until unlinked
        quiesced = true;
      }
    }
    if (quiesced) break;
  }
  // Phase 2: unlink the registration and every arc pointing at it.
  std::vector<std::pair<Basket*, int>> dead_listeners;
  {
    WriterLock reg(reg_mu_);
    entries_.erase(factory_id);
    for (auto it = arcs_.begin(); it != arcs_.end();) {
      std::erase(it->second.factory_ids, factory_id);
      if (it->second.factory_ids.empty()) {
        dead_listeners.emplace_back(it->first, it->second.listener_id);
        it = arcs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [basket, listener_id] : dead_listeners) {
    if (listener_id >= 0) basket->RemoveListener(listener_id);
  }
}

std::vector<FactoryPtr> Scheduler::Factories() const {
  ReaderLock reg(reg_mu_);
  std::vector<FactoryPtr> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) out.push_back(e->factory);
  return out;
}

void Scheduler::AttachArc(Basket* basket, int factory_id) {
  WriterLock reg(reg_mu_);
  ArcList& arcs = arcs_[basket];
  if (std::find(arcs.factory_ids.begin(), arcs.factory_ids.end(),
                factory_id) != arcs.factory_ids.end()) {
    return;
  }
  arcs.factory_ids.push_back(factory_id);
  if (arcs.listener_id < 0) {
    arcs.listener_id = basket->AddListener([this, basket] { Pulse(basket); });
  }
}

bool Scheduler::EnqueueIfIdleLocked(int factory_id) {
  auto it = entries_.find(factory_id);
  if (it == entries_.end()) return false;
  Entry* e = it->second.get();
  if (e->state != EntryState::kIdle) return false;
  e->state = EntryState::kQueued;
  ready_.push_back(e);
  ++stats_.enqueues;
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, ready_.size());
  return true;
}

void Scheduler::WakeWorkers(int newly_queued) {
  // Any worker can pop any entry, so one wakeup per entry is enough; a
  // worker that is busy instead re-checks the queue before it waits.
  for (int i = 0; i < std::min(newly_queued, num_workers_); ++i) {
    work_cv_.NotifyOne();
  }
}

void Scheduler::Pulse(Basket* basket) {
  notifications_.fetch_add(1, std::memory_order_relaxed);
  int enqueued = 0;
  {
    ReaderLock reg(reg_mu_);
    auto it = arcs_.find(basket);
    if (it == arcs_.end()) return;
    MutexLock lock(mu_);
    for (int id : it->second.factory_ids) {
      if (EnqueueIfIdleLocked(id)) ++enqueued;
    }
  }
  WakeWorkers(enqueued);
}

void Scheduler::NotifyFactory(int factory_id) {
  int enqueued = 0;
  {
    ReaderLock reg(reg_mu_);
    MutexLock lock(mu_);
    if (EnqueueIfIdleLocked(factory_id)) enqueued = 1;
  }
  WakeWorkers(enqueued);
}

Scheduler::Entry* Scheduler::TryClaim(int factory_id) {
  ReaderLock reg(reg_mu_);
  auto it = entries_.find(factory_id);
  if (it == entries_.end()) return nullptr;
  Entry* e = it->second.get();
  MutexLock lock(mu_);
  if (e->state == EntryState::kQueued) {
    std::erase(ready_, e);
  } else if (e->state != EntryState::kIdle) {
    return nullptr;
  }
  e->state = EntryState::kRunning;
  return e;
}

void Scheduler::CompleteFire(Entry* e, bool fired, bool error, bool requeue) {
  // Copied while the entry is still ours: once it is idle, a concurrent
  // RemoveFactory may destroy it.
  const int id = e->id;
  const FactoryPtr factory = e->factory;
  {
    MutexLock lock(mu_);
    if (fired) {
      ++stats_.fires;
      if (error) ++stats_.fire_errors;
    } else {
      ++stats_.spurious_pops;
    }
    e->state = EntryState::kIdle;
  }
  // A RemoveFactory() may be waiting for this entry to stop running.
  done_cv_.NotifyAll();
  // A factory can be multiply enabled (several windows completed by one
  // pulse) and pulses arriving mid-fire are dropped, so the authoritative
  // probe runs once more after every fire.
  if (requeue && factory->CheckReady()) NotifyFactory(id);
}

void Scheduler::WorkerLoop() {
  while (true) {
    Entry* e = nullptr;
    {
      MutexLock lock(mu_);
      // Queued work is drained before a stop request is honoured.
      while (ready_.empty() && !stop_) work_cv_.Wait(mu_);
      if (ready_.empty()) return;  // stop_
      e = ready_.front();
      ready_.pop_front();
      e->state = EntryState::kRunning;
    }
    bool fired = false;
    bool error = false;
    if (e->factory->CheckReady()) {
      const Status st = e->factory->Fire();
      fired = true;
      error = !st.ok();
    }
    CompleteFire(e, fired, error, /*requeue=*/true);
  }
}

void Scheduler::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Scheduler::Stop() {
  // Exactly one caller becomes the joiner; it takes ownership of the
  // worker threads under mu_ and joins them outside it. A concurrent
  // Stop() waits for the joiner to finish instead of double-joining the
  // same std::thread objects, and only returns once the pool is down.
  // running_ stays true until the join completes so Start() cannot launch
  // a second pool mid-teardown.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    while (stopping_) done_cv_.Wait(mu_);
    if (!running_) return;
    stopping_ = true;
    stop_ = true;
    workers = std::move(workers_);
    workers_.clear();
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers) t.join();
  {
    MutexLock lock(mu_);
    running_ = false;
    stopping_ = false;
  }
  done_cv_.NotifyAll();
}

int Scheduler::DrainReady() {
  int fires = 0;
  while (true) {
    // Deterministic pass: probe and fire in factory-id order.
    std::vector<std::pair<int, FactoryPtr>> snapshot;
    {
      ReaderLock reg(reg_mu_);
      snapshot.reserve(entries_.size());
      for (const auto& [id, e] : entries_) {
        snapshot.emplace_back(id, e->factory);
      }
    }
    int pass_fires = 0;
    for (const auto& [id, factory] : snapshot) {
      if (!factory->CheckReady()) continue;
      Entry* e = TryClaim(id);
      if (e == nullptr) continue;
      const Status st = factory->Fire();
      CompleteFire(e, /*fired=*/true, !st.ok(), /*requeue=*/false);
      ++pass_fires;
    }
    fires += pass_fires;
    if (pass_fires == 0) break;
  }
  return fires;
}

bool Scheduler::AnyBusyOrReady() const {
  std::vector<FactoryPtr> factories;
  {
    ReaderLock reg(reg_mu_);
    MutexLock lock(mu_);
    factories.reserve(entries_.size());
    for (const auto& [id, e] : entries_) {
      if (e->state == EntryState::kRunning) return true;
      factories.push_back(e->factory);
    }
  }
  for (const FactoryPtr& f : factories) {
    if (f->CheckReady()) return true;
  }
  return false;
}

SchedulerStats Scheduler::Stats() const {
  SchedulerStats out;
  {
    // Registry before the scheduler mutex (kSchedRegistry < kSchedQueue).
    ReaderLock reg(reg_mu_);
    MutexLock lock(mu_);
    out = stats_;
    out.factories = entries_.size();
    for (const auto& [basket, arcs] : arcs_) {
      out.arcs += arcs.factory_ids.size();
    }
    out.queue_depth = ready_.size();
  }
  out.notifications = notifications_.load(std::memory_order_relaxed);
  out.shards = {{out.queue_depth, out.max_queue_depth}};
  return out;
}

}  // namespace dc
