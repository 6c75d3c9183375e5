#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"

namespace rp::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(util::SimTime::at(util::SimDuration::millis(30)),
               [&order] { order.push_back(3); });
  sim.schedule(util::SimTime::at(util::SimDuration::millis(10)),
               [&order] { order.push_back(1); });
  sim.schedule(util::SimTime::at(util::SimDuration::millis(20)),
               [&order] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const auto t = util::SimTime::at(util::SimDuration::seconds(1));
  for (int i = 0; i < 5; ++i)
    sim.schedule(t, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  util::SimTime seen;
  sim.schedule_in(util::SimDuration::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.since_origin(), util::SimDuration::millis(5));
  EXPECT_EQ(sim.now().since_origin(), util::SimDuration::millis(5));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.schedule_in(util::SimDuration::millis(1), chain);
  };
  sim.schedule_in(util::SimDuration::millis(1), chain);
  EXPECT_EQ(sim.run(), 10u);
  EXPECT_EQ(sim.now().since_origin(), util::SimDuration::millis(10));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(util::SimDuration::millis(1), [&] { ++fired; });
  sim.schedule_in(util::SimDuration::millis(100), [&] { ++fired; });
  const auto deadline = util::SimTime::at(util::SimDuration::millis(50));
  EXPECT_EQ(sim.run_until(deadline), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), deadline);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_in(util::SimDuration::seconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(util::SimTime::origin(), [] {}),
               std::invalid_argument);
}

TEST(Simulator, IdleReflectsQueueState) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule_in(util::SimDuration::millis(1), [] {});
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, QueueHighWaterKeepsEverySimulatorsSample) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();
  // A deep campaign finishes first, a shallow one last: the shallow one
  // must not overwrite the deep one's high-water mark.
  for (const int depth : {10, 3}) {
    Simulator sim;
    for (int i = 0; i < depth; ++i)
      sim.schedule_in(util::SimDuration::millis(i), [] {});
    sim.run();
  }
  const obs::MetricValue* high_water = nullptr;
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  for (const auto& metric : snapshot)
    if (metric.name == "rp.sim.queue.high_water") high_water = &metric;
  obs::set_metrics_enabled(false);
  ASSERT_NE(high_water, nullptr);
  EXPECT_EQ(high_water->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(high_water->count, 2u);
  EXPECT_GE(high_water->max, 10u);
  EXPECT_EQ(high_water->min, 3u);
}

}  // namespace
}  // namespace rp::sim
