// Unit tests for the Petri-net scheduler: enablement, manual draining,
// threaded workers, removal while running.

#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "storage/catalog.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace dc {
namespace {

// A small fixture that wires N per-batch factories onto one basket.
class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s;
    ASSERT_TRUE(s.AddColumn("v", TypeId::kI64).ok());
    StreamDef def;
    def.name = "s";
    def.schema = s;
    ASSERT_TRUE(catalog_.RegisterStream(def).ok());
    basket_ = std::make_unique<Basket>("s", s);
  }

  FactoryPtr MakeFactory(int id) {
    auto ex = testutil::CompileQuery("SELECT v FROM s", catalog_);
    Schema out;
    DC_CHECK_OK(out.AddColumn("v", TypeId::kI64));
    auto out_basket = std::make_shared<Basket>("out", out);
    FactoryInput in;
    in.is_stream = true;
    in.basket = basket_.get();
    in.reader_id = basket_->RegisterReader(true);
    auto f = Factory::Create(id, StrFormat("f%d", id), ex,
                             ExecMode::kFullReeval, {in}, out_basket);
    DC_CHECK_OK(f.status());
    return *f;
  }

  void Push(int64_t v) {
    ASSERT_TRUE(basket_->AppendRow({Value::I64(v)}).ok());
  }

  Catalog catalog_;
  std::unique_ptr<Basket> basket_;
};

TEST_F(SchedulerTest, DrainFiresAllEnabled) {
  Scheduler sched;
  auto f1 = MakeFactory(1);
  auto f2 = MakeFactory(2);
  sched.AddFactory(f1);
  sched.AddFactory(f2);
  EXPECT_EQ(sched.DrainReady(), 0);
  Push(42);
  const int fires = sched.DrainReady();
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(f1->Stats().emissions, 1u);
  EXPECT_EQ(f2->Stats().emissions, 1u);
  EXPECT_FALSE(sched.AnyBusyOrReady());
  EXPECT_EQ(sched.Stats().fires, 2u);
}

TEST_F(SchedulerTest, RemoveFactoryStopsFiring) {
  Scheduler sched;
  auto f1 = MakeFactory(1);
  sched.AddFactory(f1);
  Push(1);
  sched.DrainReady();
  sched.RemoveFactory(1);
  Push(2);
  EXPECT_EQ(sched.DrainReady(), 0);
  EXPECT_EQ(sched.Factories().size(), 0u);
}

TEST_F(SchedulerTest, ThreadedWorkersFireOnArcPulses) {
  Scheduler sched(2);
  auto f1 = MakeFactory(1);
  auto f2 = MakeFactory(2);
  sched.AttachArc(basket_.get(), 1);
  sched.AttachArc(basket_.get(), 2);
  sched.AddFactory(f1);
  sched.AddFactory(f2);
  sched.Start();
  for (int i = 0; i < 50; ++i) Push(i);
  const Micros deadline = SteadyMicros() + 5 * kMicrosPerSecond;
  while (SteadyMicros() < deadline) {
    if (f1->Stats().tuples_out == 50 && f2->Stats().tuples_out == 50) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_EQ(f1->Stats().tuples_out, 50u);
  EXPECT_EQ(f2->Stats().tuples_out, 50u);
  EXPECT_GE(sched.Stats().notifications, 50u);
}

TEST_F(SchedulerTest, StartStopIdempotent) {
  Scheduler sched;
  sched.Start();
  sched.Start();
  sched.Stop();
  sched.Stop();
  sched.Start();
  sched.Stop();
}

TEST_F(SchedulerTest, RemoveFactoryWhileDrainReadyFires) {
  // RemoveFactory from another thread must not hang while a manual-mode
  // DrainReady loop is firing the factory: clearing the busy flag has to
  // wake the remover (regression: DrainReady never notified the cv).
  Scheduler sched;
  auto f1 = MakeFactory(1);
  sched.AddFactory(f1);
  std::atomic<bool> done{false};
  std::thread driver([&] {
    while (!done.load()) {
      sched.DrainReady();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::thread feeder([&] {
    for (int i = 0; i < 2000 && !done.load(); ++i) {
      ASSERT_TRUE(basket_->AppendRow({Value::I64(i)}).ok());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sched.RemoveFactory(1);  // must return despite concurrent firing
  done.store(true);
  feeder.join();
  driver.join();
  EXPECT_EQ(sched.Factories().size(), 0u);
}

TEST_F(SchedulerTest, ConcurrentAddRemoveUnderFire) {
  // A busy entry must never be destroyed mid-fire: workers fire factories
  // while another thread churns add/remove. TSan + repeat-until-fail in CI
  // make this a race hunt.
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
    sched.AttachArc(basket_.get(), 100 + round);
    sched.AddFactory(f);
    // Give workers a chance to claim and fire it, then rip it out.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    sched.RemoveFactory(100 + round);
  }
  done.store(true);
  feeder.join();
  sched.Stop();
  EXPECT_EQ(sched.Factories().size(), 0u);
}

// Regression: two threads calling Stop() concurrently used to race on
// joining the same worker threads (std::thread::join on a joinable-by-
// both handle). Stop() now elects one joiner; the loser blocks until
// teardown completes, and a Start() issued mid-teardown must not
// relaunch workers that are still being joined.
TEST_F(SchedulerTest, ConcurrentStopIsSingleJoin) {
  for (int round = 0; round < 20; ++round) {
    Scheduler sched(2);
    auto f1 = MakeFactory(1);
    sched.AddFactory(f1);
    sched.Start();
    Push(round);
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&] { sched.Stop(); });
    }
    for (auto& t : stoppers) t.join();
    // Stop/Start/Stop afterwards still behaves.
    sched.Start();
    sched.Stop();
  }
}

TEST_F(SchedulerTest, PausedFactoriesAreSkipped) {
  Scheduler sched;
  auto f1 = MakeFactory(1);
  sched.AddFactory(f1);
  f1->Pause();
  Push(1);
  EXPECT_EQ(sched.DrainReady(), 0);
  f1->Resume();
  EXPECT_EQ(sched.DrainReady(), 1);
}

}  // namespace
}  // namespace dc
