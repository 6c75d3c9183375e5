// Unit tests of the rp::obs metrics registry: sharded counters, log2
// histograms, gauges, registration semantics, and the enabled/disabled gate.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace rp::obs {
namespace {

/// Enables metrics for one test and restores the disabled default on exit,
/// so suites sharing the process never leak the flag into each other.
struct MetricsOn {
  MetricsOn() { set_metrics_enabled(true); }
  ~MetricsOn() { set_metrics_enabled(false); }
};

const MetricValue* find(const std::vector<MetricValue>& snapshot,
                        const std::string& name) {
  for (const auto& m : snapshot)
    if (m.name == name) return &m;
  return nullptr;
}

TEST(Metrics, CounterSumsExactlyAcrossThreads) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Counter counter("test.metrics.cross_thread");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < 1000; ++i) counter.add(3);
    });
  for (auto& thread : threads) thread.join();
  counter.add(5);
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.cross_thread");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(m->count, 8u * 1000u * 3u + 5u);
}

TEST(Metrics, DisabledUpdatesAreDropped) {
  MetricsRegistry::global().reset();
  ASSERT_FALSE(metrics_enabled());
  Counter counter("test.metrics.disabled");
  Histogram histogram("test.metrics.disabled_hist");
  counter.add(7);
  histogram.record(7);
  { ScopedTimer timer(histogram); }
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(find(snap, "test.metrics.disabled")->count, 0u);
  EXPECT_EQ(find(snap, "test.metrics.disabled_hist")->count, 0u);
}

TEST(Metrics, SameNameSharesOneMetric) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Counter a("test.metrics.shared");
  Counter b("test.metrics.shared");
  a.add(2);
  b.add(3);
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(find(snap, "test.metrics.shared")->count, 5u);
}

TEST(Metrics, KindMismatchThrows) {
  Counter counter("test.metrics.kind_clash");
  EXPECT_THROW(Histogram("test.metrics.kind_clash"), std::logic_error);
}

TEST(Metrics, HistogramBucketsAreLog2) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Histogram histogram("test.metrics.log2");
  histogram.record(0);    // bucket 0
  histogram.record(1);    // bucket 1
  histogram.record(2);    // bucket 2
  histogram.record(3);    // bucket 2
  histogram.record(900);  // bucket 10: [512, 1024)
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.log2");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 5u);
  EXPECT_EQ(m->sum, 906u);
  EXPECT_EQ(m->min, 0u);
  EXPECT_EQ(m->max, 900u);
  EXPECT_DOUBLE_EQ(m->mean(), 906.0 / 5.0);
  EXPECT_EQ(m->buckets[0], 1u);
  EXPECT_EQ(m->buckets[1], 1u);
  EXPECT_EQ(m->buckets[2], 2u);
  EXPECT_EQ(m->buckets[10], 1u);
}

TEST(Metrics, QuantileInterpolatesInsideBuckets) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Histogram histogram("test.metrics.quantile_uniform");
  // 64 samples spread uniformly over bucket 7's range [64, 128).
  for (std::uint64_t v = 64; v < 128; ++v) histogram.record(v);
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.quantile_uniform");
  ASSERT_NE(m, nullptr);
  // All mass sits in one bucket; linear interpolation across [64, 128)
  // lands the median near the true one (95.5) — well within a bucket step.
  EXPECT_NEAR(m->quantile(0.50), 96.0, 4.0);
  EXPECT_NEAR(m->quantile(0.99), 127.0, 4.0);
  // Quantiles never leave the recorded [min, max].
  EXPECT_GE(m->quantile(0.0), 64.0);
  EXPECT_LE(m->quantile(1.0), 127.0);
}

TEST(Metrics, QuantileAcrossBucketsRespectsOrdering) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Histogram histogram("test.metrics.quantile_spread");
  // 90 small samples and 10 large ones: p50 must stay small, p99 large.
  for (int i = 0; i < 90; ++i) histogram.record(10);
  for (int i = 0; i < 10; ++i) histogram.record(100000);
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.quantile_spread");
  ASSERT_NE(m, nullptr);
  EXPECT_LT(m->quantile(0.50), 20.0);
  EXPECT_GT(m->quantile(0.95), 60000.0);
  EXPECT_LE(m->quantile(0.50), m->quantile(0.90));
  EXPECT_LE(m->quantile(0.90), m->quantile(0.99));
}

TEST(Metrics, QuantileDegenerateCases) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Histogram histogram("test.metrics.quantile_edge");
  // Each snapshot is bound to a named local: find() returns a pointer into
  // the vector, which must outlive the checks that read it.
  const auto empty_snap = MetricsRegistry::global().snapshot();
  const auto* empty = find(empty_snap, "test.metrics.quantile_edge");
  ASSERT_NE(empty, nullptr);
  // No samples yet: "no data" is NaN, never a fabricated 0 (a 0 would be
  // indistinguishable from a real all-zero latency distribution).
  EXPECT_TRUE(std::isnan(empty->quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty->quantile(0.0)));
  EXPECT_TRUE(std::isnan(empty->quantile(1.0)));

  // All samples identical: min/max clamping reports the exact value.
  for (int i = 0; i < 100; ++i) histogram.record(42);
  const auto same_snap = MetricsRegistry::global().snapshot();
  const auto* m = find(same_snap, "test.metrics.quantile_edge");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(m->quantile(0.99), 42.0);

  // Zero-only histograms report 0 (bucket 0 is exact).
  MetricsRegistry::global().reset();
  histogram.record(0);
  const auto zero_snap = MetricsRegistry::global().snapshot();
  const auto* zero = find(zero_snap, "test.metrics.quantile_edge");
  ASSERT_NE(zero, nullptr);
  EXPECT_DOUBLE_EQ(zero->quantile(0.99), 0.0);

  // Counters have no quantiles — NaN, even with a nonzero count.
  Counter counter("test.metrics.quantile_counter");
  counter.add(5);
  const auto counter_snap = MetricsRegistry::global().snapshot();
  const auto* c = find(counter_snap, "test.metrics.quantile_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(std::isnan(c->quantile(0.5)));
}

TEST(Metrics, QuantileSingleBucketClampsToObservedRange) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Histogram histogram("test.metrics.quantile_one_bucket");
  // Two distinct samples inside one log2 bucket [128, 256): interpolation
  // works on the bucket's nominal range, but the clamp contract promises no
  // quantile ever escapes the recorded [min, max].
  histogram.record(130);
  histogram.record(140);
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.quantile_one_bucket");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->min, 130u);
  EXPECT_EQ(m->max, 140u);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = m->quantile(q);
    EXPECT_GE(v, 130.0) << "q=" << q;
    EXPECT_LE(v, 140.0) << "q=" << q;
  }
  // Monotone in q even under clamping.
  EXPECT_LE(m->quantile(0.1), m->quantile(0.9));
}

TEST(Metrics, GaugeLastWriterWins) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Gauge gauge("test.metrics.gauge");
  gauge.set(1.5);
  gauge.set(42.25);
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.gauge");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 42.25);
}

TEST(Metrics, ResetZeroesEverything) {
  MetricsOn on;
  Counter counter("test.metrics.reset");
  counter.add(9);
  MetricsRegistry::global().reset();
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(find(snap, "test.metrics.reset")->count, 0u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  Counter z("test.metrics.zz");
  Counter a("test.metrics.aa");
  const auto snap = MetricsRegistry::global().snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LT(snap[i - 1].name, snap[i].name);
}

TEST(Metrics, DeterministicSnapshotExcludesSchedulingMetrics) {
  Counter stable("test.metrics.stable", Stability::kDeterministic);
  Counter wobbly("test.metrics.wobbly", Stability::kScheduling);
  const auto det = MetricsRegistry::global().deterministic_snapshot();
  EXPECT_NE(find(det, "test.metrics.stable"), nullptr);
  EXPECT_EQ(find(det, "test.metrics.wobbly"), nullptr);
}

TEST(Metrics, ScopedTimerRecordsWhenEnabled) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Histogram histogram("test.metrics.timer");
  { ScopedTimer timer(histogram); }
  const auto snap = MetricsRegistry::global().snapshot();
  const auto* m = find(snap, "test.metrics.timer");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);
}

TEST(MetricsExport, JsonEntriesCoverEveryKind) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Counter counter("test.export.counter");
  Gauge gauge("test.export.gauge");
  Histogram histogram("test.export.hist");
  counter.add(4);
  gauge.set(2.5);
  histogram.record(16);
  const auto entries =
      metrics_json_entries(MetricsRegistry::global().snapshot());
  auto value_of = [&entries](const std::string& key) -> std::string {
    for (const auto& [k, v] : entries)
      if (k == key) return v;
    return "(missing)";
  };
  EXPECT_EQ(value_of("test.export.counter"), "4");
  EXPECT_EQ(value_of("test.export.gauge"), "2.5");
  EXPECT_EQ(value_of("test.export.hist.count"), "1");
  EXPECT_EQ(value_of("test.export.hist.sum"), "16");
  // Quantile keys ride along for histograms (clamped to the exact value
  // when every sample is equal).
  EXPECT_EQ(value_of("test.export.hist.p50"), "16");
  EXPECT_EQ(value_of("test.export.hist.p99"), "16");

  // The flat writer produces one key per line between braces.
  std::ostringstream os;
  write_metrics_json(os, MetricsRegistry::global().snapshot());
  const std::string text = os.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"test.export.counter\": 4"), std::string::npos);
}

TEST(MetricsExport, TableListsEveryMetric) {
  MetricsOn on;
  MetricsRegistry::global().reset();
  Counter counter("test.table.counter");
  counter.add(11);
  std::ostringstream os;
  render_metrics_table(os, MetricsRegistry::global().snapshot());
  EXPECT_NE(os.str().find("test.table.counter"), std::string::npos);
  EXPECT_NE(os.str().find("11"), std::string::npos);
}

TEST(MetricsExport, PrometheusNamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(prometheus_metric_name("queue.depth"), "rp_queue_depth");
  EXPECT_EQ(prometheus_metric_name("req.world-info.p50_us"),
            "rp_req_world_info_p50_us");
  // Already rp_-prefixed keys are not double-prefixed.
  EXPECT_EQ(prometheus_metric_name("rp_custom"), "rp_custom");
  // Colons are legal in Prometheus metric names and pass through.
  EXPECT_EQ(prometheus_metric_name("rp_a:b"), "rp_a:b");
}

TEST(MetricsExport, CanonicalNumberGrammarIsStrict) {
  for (const char* ok : {"0", "3", "-7", "1.5", "0.25", "-0.5", "1e9",
                         "2.5e-3", "1.797e+308", "1234567890"})
    EXPECT_TRUE(is_canonical_number(ok)) << ok;
  // Leading zeros are the tell for an all-digit hex digest, and inf/nan
  // have no JSON spelling.
  for (const char* bad :
       {"", "0000000000000000", "007", "9f3ac2d47b81e605", "1,2,3", "inf",
        "-inf", "nan", "+5", ".5", "1.", "1e", "-", "1.5.2", "0x10", " 1"})
    EXPECT_FALSE(is_canonical_number(bad)) << bad;
}

TEST(MetricsExport, PrometheusWritesOnlyNumericRows) {
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"queue.depth", "3"},
      {"pool.world.0.digest", "9f3ac2d47b81e605"},  // hex: not a sample
      {"slow.0.world", "0000000000000000"},  // all-digit digest: still not
      {"stats.uptime_s", "1.5"},
      {"ts.series", "1,2,3"},  // comma-joined window: not a sample
      {"bad.inf", "inf"},      // parses leniently but non-finite: skipped
      {"bad.empty", ""},
  };
  std::ostringstream os;
  EXPECT_EQ(write_prometheus(os, rows), 2u);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE rp_queue_depth gauge\nrp_queue_depth 3\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE rp_stats_uptime_s gauge\nrp_stats_uptime_s 1.5\n"),
      std::string::npos);
  EXPECT_EQ(text.find("digest"), std::string::npos);
  EXPECT_EQ(text.find("slow_0_world"), std::string::npos);
  EXPECT_EQ(text.find("ts_series"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace rp::obs
