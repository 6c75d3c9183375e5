// rp::obs — the metrics substrate of the pipeline.
//
// A process-wide registry of named counters, gauges, and log-scale
// histograms, designed around two constraints:
//
//   1. Zero hot-path contention. Counter and histogram updates land in a
//      thread-local shard (one cache-friendly block per thread); nothing is
//      shared between writers. Aggregation happens on read: a snapshot sums
//      the retired shards of exited threads plus every live shard.
//   2. Deterministic totals. Counter and histogram-bucket totals are sums of
//      unsigned integers, so the aggregate is independent of scheduling —
//      the same work produces byte-identical totals at any RP_THREADS.
//      Metrics whose *values* depend on scheduling or wall-clock time (queue
//      waits, busy times, tasks-per-worker) are tagged Stability::kScheduling
//      so tools can exclude them from determinism checks.
//
// Metrics are disabled by default: every update is gated on a single global
// flag, so the disabled cost is one predictable branch (the gated perf_io,
// perf_sim and perf_stream rates and perfbench's untraced paper_pipeline
// run with metrics compiled in but off). Enable with
// obs::set_metrics_enabled(true) (the --metrics flag of the examples), or by
// setting RP_METRICS=1 in the environment.
//
// Naming convention: rp.<layer>.<metric>, e.g. "rp.bgp.routes.computed",
// "rp.measure.discard.sample-size", "rp.pool.queue_wait_ns". Histogram and
// duration metrics end in the unit (_ns, _bytes).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rp::obs {

/// What a metric measures: a monotonic count, a point-in-time value, or a
/// distribution over log2-scale buckets.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Whether a metric's aggregate is a pure function of the work performed
/// (identical at any RP_THREADS) or reflects scheduling / wall-clock time.
enum class Stability : std::uint8_t { kDeterministic, kScheduling };

namespace detail {
// Relaxed atomic rather than a plain bool so a toggle concurrent with pool
// workers is a benign (and TSan-clean) race; the relaxed load compiles to
// the same single branch on the hot path.
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// True when metric updates are being recorded. The hot-path gate: every
/// Counter::add / Histogram::record begins with this branch.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Flips recording on or off. Not meant to race with running pipelines; call
/// it before the work starts (examples do this while parsing flags).
void set_metrics_enabled(bool on);

/// True when RP_METRICS is set to a non-empty, non-"0" value in the
/// environment (the out-of-band way to enable metrics on any binary).
bool metrics_env_requested();

/// Histogram buckets: value v lands in bucket bit_width(v), i.e. bucket 0
/// holds exactly 0, bucket k holds [2^(k-1), 2^k).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Slots in every bounded telemetry ring: one request-trace ring per
/// RequestTracer (the serve daemon owns one), one time-series ring per
/// series.
inline constexpr std::size_t kRingCapacity = 256;

/// One aggregated metric in a registry snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Stability stability = Stability::kDeterministic;
  /// Counter total, or histogram sample count.
  std::uint64_t count = 0;
  /// Gauge value (kGauge only).
  double value = 0.0;
  /// Histogram sum / min / max over recorded values (kHistogram only;
  /// min/max are 0 when count == 0).
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimates the q-quantile (q in [0, 1]; out-of-range q is clamped) of a
  /// histogram by linear interpolation inside its log2 buckets: the target
  /// rank q * count is located in the cumulative bucket counts, then mapped
  /// linearly across the owning bucket's value range [2^(k-1), 2^k).
  ///
  /// Clamp contract: the estimate is always clamped to the recorded
  /// [min, max], so a quantile never reports a value outside what was
  /// actually observed — degenerate distributions (all samples equal, or a
  /// single bucket) report a value within the recorded range exactly, and
  /// q=0 / q=1 return min / max respectively rather than bucket edges.
  ///
  /// Returns NaN when the histogram is empty or the metric is not a
  /// histogram — "no samples" must be distinguishable from "quantile is 0"
  /// (the JSON exporters map the NaN to 0 because JSON has no NaN, but
  /// in-process consumers like the stats surface use it to suppress rows).
  double quantile(double q) const;
};

/// The process-wide registry. Metric handles (Counter, Gauge, Histogram
/// below) register themselves on construction — typically as function-local
/// statics at the instrumentation site — and updates go through the handle.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Registers (or looks up) a metric and returns its id. Registering the
  /// same name twice returns the same id; a kind mismatch throws
  /// std::logic_error. Registration takes a lock — do it once, not per update.
  std::size_t register_metric(const std::string& name, MetricKind kind,
                              Stability stability);

  void counter_add(std::size_t id, std::uint64_t delta);
  void gauge_set(std::size_t id, double value);
  void histogram_record(std::size_t id, std::uint64_t value);

  /// Aggregates every registered metric, sorted by name. Totals are exact
  /// sums over retired + live shards; safe to call while writers run
  /// (writers are relaxed-atomic), though the snapshot is then a torn-free
  /// but instantaneous-ish view.
  std::vector<MetricValue> snapshot() const;

  /// Snapshot filtered to Stability::kDeterministic metrics — the subset a
  /// determinism check may compare across thread counts.
  std::vector<MetricValue> deterministic_snapshot() const;

  /// Zeroes every metric (retired and live shards, gauges). Call only while
  /// no pipeline is running; used by tests and rpstat between runs.
  void reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry();
  ~MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

/// A counter handle. Construct once (static local) per instrumentation site.
class Counter {
 public:
  explicit Counter(const char* name,
                   Stability stability = Stability::kDeterministic)
      : id_(MetricsRegistry::global().register_metric(name, MetricKind::kCounter,
                                                      stability)) {}

  void add(std::uint64_t delta = 1) {
    if (!metrics_enabled()) return;
    MetricsRegistry::global().counter_add(id_, delta);
  }

 private:
  std::size_t id_;
};

/// A gauge handle: set-style, last writer wins. Use for sizes computed once
/// (e.g. eligible-peer counts), not from parallel regions.
class Gauge {
 public:
  explicit Gauge(const char* name,
                 Stability stability = Stability::kDeterministic)
      : id_(MetricsRegistry::global().register_metric(name, MetricKind::kGauge,
                                                      stability)) {}

  void set(double value) {
    if (!metrics_enabled()) return;
    MetricsRegistry::global().gauge_set(id_, value);
  }

 private:
  std::size_t id_;
};

/// A log2-scale histogram handle (bucket = bit_width of the value).
class Histogram {
 public:
  explicit Histogram(const char* name,
                     Stability stability = Stability::kScheduling)
      : id_(MetricsRegistry::global().register_metric(
            name, MetricKind::kHistogram, stability)) {}

  void record(std::uint64_t value) {
    if (!metrics_enabled()) return;
    MetricsRegistry::global().histogram_record(id_, value);
  }

 private:
  std::size_t id_;
};

/// Monotonic nanosecond clock for duration metrics (steady_clock based).
std::uint64_t monotonic_ns();

/// RAII timer recording elapsed nanoseconds into a histogram. Costs nothing
/// when metrics are disabled (no clock call).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram),
        start_ns_(metrics_enabled() ? monotonic_ns() : 0),
        active_(metrics_enabled()) {}
  ~ScopedTimer() {
    if (active_) histogram_.record(monotonic_ns() - start_ns_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::uint64_t start_ns_;
  bool active_;
};

}  // namespace rp::obs
