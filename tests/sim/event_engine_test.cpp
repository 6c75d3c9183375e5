// Stress tests for the event engine: fabric-scale and control-scale delays,
// long jumps through an idle queue, late insertions ahead of pending events
// and run_until pauses must execute in exactly (time, schedule-order) —
// bit-identical to one sorted queue — and every stored payload must be
// destroyed exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/sim_time.hpp"

namespace rp::sim {
namespace {

util::SimTime at_nanos(std::int64_t ns) {
  return util::SimTime::at(util::SimDuration::nanos(ns));
}

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// An execution trace entry: when the event ran and which schedule() call
// created it. The engine's contract is that the trace is sorted by
// (time, schedule order).
using Trace = std::vector<std::pair<std::int64_t, std::uint64_t>>;

bool trace_ordered(const Trace& trace) {
  return std::is_sorted(trace.begin(), trace.end());
}

TEST(EventEngine, OrderMatchesSortedQueueAcrossBothTiers) {
  Simulator sim;
  Trace trace;
  std::uint64_t x = 0x243F6A8885A308D3ull;
  constexpr int kEvents = 20000;
  // A coarse 512 ns grid over ~20 ms: collisions force plenty of
  // same-time ties whose resolution must be schedule order.
  std::vector<std::int64_t> at(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    at[i] = static_cast<std::int64_t>(next(x) % 40000) * 512;
    sim.schedule(at_nanos(at[i]),
                 [&trace, &sim, i] {
                   trace.emplace_back(sim.now().count_nanos(),
                                      static_cast<std::uint64_t>(i));
                 });
  }
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(kEvents));

  Trace expected;
  for (int i = 0; i < kEvents; ++i)
    expected.emplace_back(at[i], static_cast<std::uint64_t>(i));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(trace, expected);
  EXPECT_TRUE(sim.idle());
}

/// A self-fanning event: runs, logs itself, and schedules two children at
/// mixed fabric-scale (sub-millisecond) and control-scale (up to a second)
/// delays, so the queue holds near and far events at once.
struct Fanout {
  Simulator* sim;
  Trace* trace;
  std::uint64_t* arrivals;
  std::uint64_t my_arrival;
  std::uint64_t x;
  int depth;

  void operator()() {
    trace->emplace_back(sim->now().count_nanos(), my_arrival);
    if (depth == 0) return;
    for (int k = 0; k < 2; ++k) {
      Fanout child = *this;
      next(child.x);
      child.x += static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
      child.my_arrival = (*arrivals)++;
      child.depth = depth - 1;
      // One child lands within a millisecond, the other up to a second
      // out.
      const auto delay = (k == 0)
                             ? util::SimDuration::nanos(
                                   static_cast<std::int64_t>(child.x % 900'000))
                             : util::SimDuration::micros(static_cast<std::int64_t>(
                                   child.x % 1'000'000));
      sim->schedule_in(delay, std::move(child));
    }
  }
};
static_assert(Simulator::stored_inline<Fanout>());

TEST(EventEngine, DynamicFanoutStaysOrderedThroughWindowRebases) {
  Simulator sim;
  Trace trace;
  std::uint64_t arrivals = 0;
  constexpr int kDepth = 12;  // 2^13 - 1 events.
  Fanout root{&sim, &trace, &arrivals, arrivals++, 0x9E3779B97F4A7C15ull,
              kDepth};
  sim.schedule(at_nanos(0), std::move(root));

  const std::size_t executed = sim.run();
  EXPECT_EQ(executed, arrivals);
  EXPECT_EQ(trace.size(), arrivals);
  // Arrival order is exactly the engine's internal sequence order, so the
  // trace must be lexicographically sorted by (time, arrival).
  EXPECT_TRUE(trace_ordered(trace));
  EXPECT_EQ(sim.events_executed(), executed);
}

TEST(EventEngine, StragglerBehindRebasedWindowRunsFirst) {
  Simulator sim;
  Trace trace;
  const auto log = [&trace, &sim](std::uint64_t id) {
    return [&trace, &sim, id] {
      trace.emplace_back(sim.now().count_nanos(), id);
    };
  };
  // A lone far-future event; running up to an early deadline leaves it
  // pending while now() moves to 1 ms.
  const std::int64_t far = 10'000'000'000;
  sim.schedule(at_nanos(far), log(2));
  EXPECT_EQ(sim.run_until(at_nanos(1'000'000)), 0u);
  EXPECT_EQ(sim.now().count_nanos(), 1'000'000);

  // Now a straggler lands well before the far event (2 ms << 10 s) and
  // another just after it. The straggler must still run first.
  sim.schedule(at_nanos(2'000'000), log(1));
  sim.schedule(at_nanos(far + 1024), log(3));
  EXPECT_EQ(sim.run(), 3u);

  const Trace expected{{2'000'000, 1}, {far, 2}, {far + 1024, 3}};
  EXPECT_EQ(trace, expected);
}

TEST(EventEngine, CursorStepsBackForAnEarlierBucket) {
  Simulator sim;
  Trace trace;
  const auto log = [&trace, &sim](std::uint64_t id) {
    return [&trace, &sim, id] {
      trace.emplace_back(sim.now().count_nanos(), id);
    };
  };
  const std::int64_t base = 10'000'000'000;
  sim.schedule(at_nanos(base), log(1));
  sim.schedule(at_nanos(base + 2'000'000), log(3));
  // Executes event 1 and leaves event 3 pending 2 ms later.
  EXPECT_EQ(sim.run_until(at_nanos(base)), 1u);
  // A new event between the two must run before event 3.
  sim.schedule(at_nanos(base + 1'000'000), log(2));
  EXPECT_EQ(sim.run(), 2u);

  const Trace expected{{base, 1}, {base + 1'000'000, 2},
                       {base + 2'000'000, 3}};
  EXPECT_EQ(trace, expected);
}

TEST(EventEngine, RunUntilDeadlineSplitsTheSameBucket) {
  Simulator sim;
  Trace trace;
  // Two events 100 ns apart; a deadline between them must execute only
  // the first, and the second survives the pause (plus an insertion that
  // lands between the deadline and the survivor).
  sim.schedule(at_nanos(2048), [&] {
    trace.emplace_back(sim.now().count_nanos(), 1);
  });
  sim.schedule(at_nanos(2148), [&] {
    trace.emplace_back(sim.now().count_nanos(), 3);
  });
  EXPECT_EQ(sim.run_until(at_nanos(2100)), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.schedule(at_nanos(2120), [&] {
    trace.emplace_back(sim.now().count_nanos(), 2);
  });
  EXPECT_EQ(sim.run(), 2u);
  const Trace expected{{2048, 1}, {2120, 2}, {2148, 3}};
  EXPECT_EQ(trace, expected);
}

/// Payload with a live-instance census: every copy/move counts, so leaked
/// or double-destroyed records show up as a non-zero balance.
struct Counted {
  static int live;
  int* runs;
  std::array<std::byte, 16> pad{};
  explicit Counted(int* r) : runs(r) { ++live; }
  Counted(const Counted& o) : runs(o.runs) { ++live; }
  Counted(Counted&& o) noexcept : runs(o.runs) { ++live; }
  ~Counted() { --live; }
  void operator()() const { ++*runs; }
};
int Counted::live = 0;
static_assert(Simulator::stored_inline<Counted>());

/// Oversized payload (beyond the 56-byte inline slot): exercises the boxed
/// fallback, including destruction of unexecuted boxed leftovers.
struct BigCounted {
  static int live;
  int* runs;
  std::array<std::byte, 96> pad{};
  explicit BigCounted(int* r) : runs(r) { ++live; }
  BigCounted(const BigCounted& o) : runs(o.runs) { ++live; }
  BigCounted(BigCounted&& o) noexcept : runs(o.runs) { ++live; }
  ~BigCounted() { --live; }
  void operator()() const { ++*runs; }
};
int BigCounted::live = 0;
static_assert(!Simulator::stored_inline<BigCounted>());

TEST(EventEngine, LeftoverPayloadsDestroyedExactlyOnce) {
  Counted::live = 0;
  BigCounted::live = 0;
  int runs = 0;
  {
    Simulator sim;
    // Executed, near leftover, far leftover — inline and boxed flavours.
    sim.schedule(at_nanos(10), Counted(&runs));
    sim.schedule(at_nanos(20), BigCounted(&runs));
    sim.schedule(at_nanos(1'000'000), Counted(&runs));
    sim.schedule(at_nanos(1'000'001), BigCounted(&runs));
    sim.schedule(at_nanos(8'000'000'000), Counted(&runs));
    sim.schedule(at_nanos(8'000'000'001), BigCounted(&runs));
    EXPECT_EQ(sim.run_until(at_nanos(100)), 2u);
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(sim.pending(), 4u);
  }
  // Destroying the simulator tears down the four unexecuted payloads.
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(BigCounted::live, 0);
}

TEST(EventEngine, BoxedCallableRunsAndBalancesItsCensus) {
  BigCounted::live = 0;
  int runs = 0;
  {
    Simulator sim;
    sim.schedule(at_nanos(5), BigCounted(&runs));
    EXPECT_EQ(sim.run(), 1u);
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(BigCounted::live, 0);
}

TEST(EventEngine, AccountingSpansMultipleRuns) {
  Simulator sim;
  for (int i = 0; i < 10; ++i)
    sim.schedule(at_nanos(1000 * (i + 1)), [] {});
  EXPECT_EQ(sim.queue_high_water(), 10u);
  EXPECT_EQ(sim.run_until(at_nanos(5000)), 5u);
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.pending(), 5u);
  // The high-water mark is a lifetime maximum, not the current depth.
  for (int i = 0; i < 7; ++i)
    sim.schedule(at_nanos(20000 + 1000 * i), [] {});
  EXPECT_EQ(sim.queue_high_water(), 12u);
  EXPECT_EQ(sim.run(), 12u);
  EXPECT_EQ(sim.events_executed(), 17u);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace rp::sim
