// Unit tests of the rp::obs time-series recorder: counter→rate derivation,
// gauge and histogram series, ring wrap and the sampler thread lifecycle.
// sample_once() drives the recorder deterministically — the thread is only
// exercised by the lifecycle test.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace rp::obs {
namespace {

/// Arms metrics and clears the registry for one test, with a fresh recorder;
/// restores the disarmed default on exit.
struct RecorderOn {
  RecorderOn() {
    set_metrics_enabled(true);
    MetricsRegistry::global().reset();
  }
  ~RecorderOn() {
    recorder.stop();
    MetricsRegistry::global().reset();
    set_metrics_enabled(false);
  }
  TimeSeriesRecorder recorder;
};

bool has_key(const std::vector<std::string>& keys, const std::string& key) {
  for (const auto& k : keys)
    if (k == key) return true;
  return false;
}

TEST(TimeSeries, CounterRateNeedsTwoSamplesAndIsNonNegative) {
  RecorderOn on;
  TimeSeriesRecorder& recorder = on.recorder;
  Counter counter("test.ts.counter");
  counter.add(100);

  recorder.sample_once();
  // One sample establishes the baseline; no rate point yet.
  EXPECT_FALSE(has_key(recorder.keys(), "test.ts.counter.rate"));

  counter.add(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  recorder.sample_once();
  const auto points = recorder.window("test.ts.counter.rate");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].value, 0.0);  // 50 events over a positive interval.
  EXPECT_GT(points[0].t_ns, 0u);

  // A registry reset between samples must not produce a negative rate.
  MetricsRegistry::global().reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  recorder.sample_once();
  const auto after_reset = recorder.window("test.ts.counter.rate");
  ASSERT_EQ(after_reset.size(), 2u);
  EXPECT_DOUBLE_EQ(after_reset[1].value, 0.0);
}

TEST(TimeSeries, GaugeSeriesTracksLastValue) {
  RecorderOn on;
  TimeSeriesRecorder& recorder = on.recorder;
  Gauge gauge("test.ts.gauge");
  gauge.set(1.5);
  recorder.sample_once();
  gauge.set(42.25);
  recorder.sample_once();

  const auto points = recorder.window("test.ts.gauge");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].value, 1.5);
  EXPECT_DOUBLE_EQ(points[1].value, 42.25);
  EXPECT_LE(points[0].t_ns, points[1].t_ns);
}

TEST(TimeSeries, EmptyHistogramsAreSuppressedUntilTheyHaveData) {
  RecorderOn on;
  TimeSeriesRecorder& recorder = on.recorder;
  Histogram histogram("test.ts.hist");

  recorder.sample_once();  // Histogram registered but empty: no series.
  EXPECT_FALSE(has_key(recorder.keys(), "test.ts.hist.p50"));
  EXPECT_FALSE(has_key(recorder.keys(), "test.ts.hist.p99"));

  for (std::uint64_t v = 100; v < 200; ++v) histogram.record(v);
  recorder.sample_once();
  const auto p50 = recorder.window("test.ts.hist.p50");
  const auto p99 = recorder.window("test.ts.hist.p99");
  ASSERT_EQ(p50.size(), 1u);
  ASSERT_EQ(p99.size(), 1u);
  // Quantiles honour the clamp contract: inside the recorded [min, max].
  EXPECT_GE(p50[0].value, 100.0);
  EXPECT_LE(p50[0].value, 199.0);
  EXPECT_LE(p50[0].value, p99[0].value);
  EXPECT_LE(p99[0].value, 199.0);
}

TEST(TimeSeries, RingWrapBoundsEachSeries) {
  RecorderOn on;
  TimeSeriesRecorder& recorder = on.recorder;
  const std::size_t capacity = recorder.capacity();
  ASSERT_GE(capacity, 16u);
  Gauge gauge("test.ts.wrap");

  const std::size_t total = capacity + 5;
  for (std::size_t i = 0; i < total; ++i) {
    gauge.set(static_cast<double>(i));
    recorder.sample_once();
  }
  EXPECT_EQ(recorder.samples(), total);  // Tick count survives the wrap.

  const auto all = recorder.window("test.ts.wrap");
  ASSERT_EQ(all.size(), capacity);  // Memory stays bounded.
  // The 5 oldest points fell off; order is oldest → newest.
  EXPECT_DOUBLE_EQ(all.front().value, 5.0);
  EXPECT_DOUBLE_EQ(all.back().value, static_cast<double>(total - 1));

  const auto last3 = recorder.window("test.ts.wrap", 3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_DOUBLE_EQ(last3[0].value, static_cast<double>(total - 3));
  EXPECT_DOUBLE_EQ(last3[2].value, static_cast<double>(total - 1));

  // Unknown keys are empty, not an error.
  EXPECT_TRUE(recorder.window("test.ts.no_such_series").empty());
}

TEST(TimeSeries, SamplerThreadTicksAndStopsCleanly) {
  RecorderOn on;
  TimeSeriesRecorder& recorder = on.recorder;
  Gauge gauge("test.ts.sampler");
  gauge.set(7.0);

  EXPECT_FALSE(recorder.start(0));  // 0 = disabled: no thread.
  EXPECT_FALSE(recorder.running());

  ASSERT_TRUE(recorder.start(5));
  EXPECT_TRUE(recorder.running());
  EXPECT_EQ(recorder.interval_ms(), 5u);
  EXPECT_FALSE(recorder.start(5));  // Already running.

  // Wait (bounded) for the thread to take at least two ticks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (recorder.samples() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(recorder.samples(), 2u);

  recorder.stop();
  EXPECT_FALSE(recorder.running());
  EXPECT_EQ(recorder.interval_ms(), 0u);
  recorder.stop();  // Idempotent.

  EXPECT_FALSE(recorder.window("test.ts.sampler").empty());
}

}  // namespace
}  // namespace rp::obs
