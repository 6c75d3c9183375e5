// rp::obs time-series recorder — periodic MetricsRegistry snapshots reduced
// to fixed-size rings, so a live process (the serve daemon) can answer "what
// happened over the last N seconds" without unbounded memory.
//
// A recorder is a plain object its owner holds: the serve daemon keeps one
// and runs its sampler thread from start() to stop(). The sampler wakes
// every `interval_ms`, snapshots the global registry, and appends one point
// per derived series:
//
//   counters   → `<name>.rate`  (delta since previous sample / elapsed s)
//   gauges     → `<name>`       (last value)
//   histograms → `<name>.p50`, `<name>.p99` (cumulative-distribution
//                quantiles; suppressed while the histogram is empty)
//
// Each series is a ring of kRingCapacity (256) points, so
// memory is bounded by series-count × capacity regardless of uptime. A
// recorder that is not started has no thread and no cost. All values here
// are wall-clock rates and latencies, i.e. scheduling-dependent telemetry;
// the recorder never feeds back into the registry, so
// deterministic_snapshot() is unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rp::obs {

/// One sample of one series.
struct SeriesPoint {
  std::uint64_t t_ns = 0;  ///< monotonic_ns at the owning sample tick.
  double value = 0.0;
};

/// The serve daemon's sampling interval.
inline constexpr std::uint64_t kDefaultSampleMs = 500;

/// One owner's recorder. Every member is safe to call concurrently.
class TimeSeriesRecorder {
 public:
  TimeSeriesRecorder();
  /// Stops the sampler thread if it is running.
  ~TimeSeriesRecorder();

  /// Starts the sampler thread. `interval_ms == 0` is a no-op (recorder
  /// stays disarmed). Returns false when already running or disabled.
  bool start(std::uint64_t interval_ms);

  /// Stops and joins the sampler thread (no-op when not running).
  void stop();

  bool running() const;

  /// Takes one sample synchronously — the sampler thread's body, exposed so
  /// tests (and `rpq top` consumers reading a quiescent process) can drive
  /// the recorder deterministically without the thread.
  void sample_once();

  /// Interval the running sampler was started with (0 when stopped).
  std::uint64_t interval_ms() const;

  /// Total sample ticks taken since construction.
  std::uint64_t samples() const;

  /// Ring capacity per series.
  std::size_t capacity() const { return kRingCapacity; }

  /// Sorted names of every series with at least one point.
  std::vector<std::string> keys() const;

  /// The most recent `max` points of one series, oldest → newest (0 = the
  /// whole resident ring). Unknown keys return empty.
  std::vector<SeriesPoint> window(const std::string& key,
                                  std::size_t max = 0) const;

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rp::obs
