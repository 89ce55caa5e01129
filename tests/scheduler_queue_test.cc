// Stress tests for the event-driven scheduler's one ready queue: targeted
// (arc) enablement, many factories on few workers, RemoveFactory racing
// entries that are queued or in flight, and a lost-wakeup hunt. CI runs
// this suite under TSan with --repeat until-fail:3.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/scheduler.h"
#include "storage/catalog.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dc {
namespace {

// Wires N per-batch factories onto one (or two) baskets via explicit arcs,
// the way Engine does: AttachArc first, then AddFactory.
class SchedulerQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s;
    ASSERT_TRUE(s.AddColumn("v", TypeId::kI64).ok());
    for (const char* name : {"s", "t"}) {
      StreamDef def;
      def.name = name;
      def.schema = s;
      ASSERT_TRUE(catalog_.RegisterStream(def).ok());
    }
    basket_ = std::make_unique<Basket>("s", s);
    basket_t_ = std::make_unique<Basket>("t", s);
  }

  FactoryPtr MakeFactory(int id, Basket* basket = nullptr,
                         const char* stream = "s") {
    if (basket == nullptr) basket = basket_.get();
    auto ex = testutil::CompileQuery(StrFormat("SELECT v FROM %s", stream),
                                     catalog_);
    Schema out;
    DC_CHECK_OK(out.AddColumn("v", TypeId::kI64));
    auto out_basket = std::make_shared<Basket>("out", out);
    FactoryInput in;
    in.is_stream = true;
    in.basket = basket;
    in.reader_id = basket->RegisterReader(true);
    auto f = Factory::Create(id, StrFormat("f%d", id), ex,
                             ExecMode::kFullReeval, {in}, out_basket);
    DC_CHECK_OK(f.status());
    return *f;
  }

  // Engine-style registration: arc before the factory itself.
  void Wire(Scheduler& sched, const FactoryPtr& f) {
    for (Basket* b : f->InputBaskets()) sched.AttachArc(b, f->id());
    sched.AddFactory(f);
  }

  void Push(int64_t v) {
    ASSERT_TRUE(basket_->AppendRow({Value::I64(v)}).ok());
  }

  static bool WaitAllConsumed(const std::vector<FactoryPtr>& factories,
                              uint64_t tuples, Micros timeout_micros) {
    const Micros deadline = SteadyMicros() + timeout_micros;
    while (SteadyMicros() < deadline) {
      bool all = true;
      for (const FactoryPtr& f : factories) {
        all = all && f->Stats().tuples_out == tuples;
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  Catalog catalog_;
  std::unique_ptr<Basket> basket_;
  std::unique_ptr<Basket> basket_t_;
};

TEST_F(SchedulerQueueTest, TargetedPulseEnqueuesOnlySubscribedArcs) {
  Scheduler sched(0);  // manual mode; the queue stays inspectable
  auto f0 = MakeFactory(0);                          // reads s
  auto f1 = MakeFactory(1, basket_t_.get(), "t");    // reads t
  Wire(sched, f0);
  Wire(sched, f1);

  Push(7);                          // pulse on s: enables f0 only
  EXPECT_EQ(sched.DrainReady(), 1); // f1's probe never held
  EXPECT_EQ(f0->Stats().emissions, 1u);
  EXPECT_EQ(f1->Stats().emissions, 0u);

  // f0 went idle after its fire; the next pulse on s re-enqueues it. f1
  // sits queued from its registration kick, not ready.
  Push(8);
  const SchedulerStats before = sched.Stats();
  EXPECT_EQ(before.enqueues, 3u);       // two registration kicks + f0's pulse
  EXPECT_EQ(before.queue_depth, 2u);
  EXPECT_EQ(before.notifications, 2u);  // two appends = two pulses
  EXPECT_EQ(sched.DrainReady(), 1);

  const SchedulerStats after = sched.Stats();
  EXPECT_EQ(after.fires, 2u);
  EXPECT_EQ(f1->Stats().emissions, 0u);
  EXPECT_EQ(after.queue_depth, 1u);  // f1 still queued, never enabled
  EXPECT_EQ(after.max_queue_depth, 2u);

  // A pulse on t enables f1 and leaves f0 alone.
  ASSERT_TRUE(basket_t_->AppendRow({Value::I64(9)}).ok());
  EXPECT_EQ(sched.DrainReady(), 1);
  EXPECT_EQ(f0->Stats().emissions, 2u);
  EXPECT_EQ(f1->Stats().emissions, 1u);
}

TEST_F(SchedulerQueueTest, ManyFactoriesFewWorkersAllEventuallyFire) {
  Scheduler sched(2);
  std::vector<FactoryPtr> factories;
  for (int id = 0; id < 24; ++id) {
    factories.push_back(MakeFactory(id));
    Wire(sched, factories.back());
  }
  sched.Start();
  constexpr uint64_t kRows = 40;
  for (uint64_t i = 0; i < kRows; ++i) Push(static_cast<int64_t>(i));
  ASSERT_TRUE(WaitAllConsumed(factories, kRows, 10 * kMicrosPerSecond));
  sched.Stop();
  // Exactly-once delivery per factory: no duplicated and no lost fires —
  // a factory never fires concurrently with itself, or tuples_out would
  // overshoot kRows.
  for (const FactoryPtr& f : factories) {
    EXPECT_EQ(f->Stats().tuples_out, kRows) << f->name();
  }
  const SchedulerStats stats = sched.Stats();
  EXPECT_GE(stats.fires, 24u);
  EXPECT_LE(stats.max_queue_depth, 24u);  // each factory queued at most once
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SchedulerQueueTest, RemoveFactoryWhileQueued) {
  Scheduler sched(0);  // no workers: queued entries stay queued
  std::vector<FactoryPtr> factories;
  for (int id = 0; id < 8; ++id) {
    factories.push_back(MakeFactory(id));
    Wire(sched, factories.back());
  }
  Push(1);  // all 8 queued (registration kick), all enabled
  // Removal must unlink the queued entry from the middle of the queue
  // without a worker ever claiming it.
  sched.RemoveFactory(5);
  EXPECT_EQ(sched.Factories().size(), 7u);
  EXPECT_EQ(sched.Stats().queue_depth, 7u);
  EXPECT_EQ(sched.DrainReady(), 7);
  EXPECT_EQ(factories[5]->Stats().invocations, 0u);
  const SchedulerStats stats = sched.Stats();
  EXPECT_EQ(stats.fires, 7u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SchedulerQueueTest, ConcurrentChurnWithArcs) {
  // Add/remove factories while workers fire and a feeder pulses the
  // basket: no entry may be destroyed mid-fire, and RemoveFactory must
  // reap entries wherever they sit in the queue. Race hunt for TSan +
  // --repeat until-fail in CI.
  Scheduler sched(4);
  sched.Start();
  std::atomic<bool> done{false};
  std::thread feeder([&] {
    int64_t i = 0;
    while (!done.load()) {
      ASSERT_TRUE(basket_->AppendRow({Value::I64(i++)}).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  for (int round = 0; round < 50; ++round) {
    auto f = MakeFactory(100 + round);
    Wire(sched, f);
    // Give workers a chance to claim and fire it, then rip it out.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    sched.RemoveFactory(100 + round);
  }
  done.store(true);
  feeder.join();
  sched.Stop();
  EXPECT_EQ(sched.Factories().size(), 0u);
}

// Lost-wakeup hunt. Idle workers sleep on one condvar with no fallback
// tick, so a pulse whose wakeup is lost strands its factories forever:
// each pulse waits for its fires under a 2 s deadline, and a miss fails
// the test instead of slowing it down. Two factories read the basket, so
// both workers fire on every pulse and head back to sleep together, and
// the next pulse is sent as soon as both fired — while the workers are
// still completing — or after a seeded jitter (DC_FUZZ_SEED), so pulses
// land all along a worker's path from "fire done" to "asleep again".
TEST_F(SchedulerQueueTest, EveryPulseFiresWithoutFallbackTick) {
  uint64_t seed = 20261020;
  if (const char* s = std::getenv("DC_FUZZ_SEED")) {
    seed = std::strtoull(s, nullptr, 10);
  }
  Rng rng(seed);
  Scheduler sched(2);
  const std::vector<FactoryPtr> factories{MakeFactory(0), MakeFactory(1)};
  for (const FactoryPtr& f : factories) Wire(sched, f);
  sched.Start();
  constexpr uint64_t kPulses = 2000;
  for (uint64_t i = 0; i < kPulses; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
      case 1:
        break;  // pulse at once
      case 2:
        std::this_thread::yield();
        break;
      default:
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.UniformInt(1, 200)));
        break;
    }
    Push(static_cast<int64_t>(i));
    const Micros deadline = SteadyMicros() + 2 * kMicrosPerSecond;
    for (const FactoryPtr& f : factories) {
      while (f->Stats().tuples_out < i + 1 && SteadyMicros() < deadline) {
        std::this_thread::yield();
      }
      ASSERT_EQ(f->Stats().tuples_out, i + 1)
          << f->name() << ": pulse " << i
          << " never fired; repro: DC_FUZZ_SEED=" << seed;
    }
  }
  sched.Stop();
  EXPECT_EQ(sched.Stats().fire_errors, 0u);
}

}  // namespace
}  // namespace dc
