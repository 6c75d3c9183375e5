#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace rp::obs {

namespace {

// Fixed ring of points; `next` wraps, `filled` saturates at capacity.
struct Series {
  std::vector<SeriesPoint> points;
  std::size_t next = 0;
  std::size_t filled = 0;

  void push(SeriesPoint p) {
    points[next] = p;
    next = (next + 1) % points.size();
    filled = std::min(filled + 1, points.size());
  }
};

}  // namespace

struct TimeSeriesRecorder::Impl {
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::map<std::string, Series> series;
  // Previous counter totals, for delta → rate.
  std::map<std::string, std::uint64_t> last_counters;
  std::uint64_t last_sample_ns = 0;
  std::uint64_t ticks = 0;
  std::uint64_t interval_ms = 0;
  bool stopping = false;
  std::thread sampler;

  Series& series_for(const std::string& key) {
    auto it = series.find(key);
    if (it == series.end()) {
      it = series.emplace(key, Series{}).first;
      it->second.points.resize(kRingCapacity);
    }
    return it->second;
  }
};

TimeSeriesRecorder::TimeSeriesRecorder() : impl_(std::make_unique<Impl>()) {}

TimeSeriesRecorder::~TimeSeriesRecorder() { stop(); }

void TimeSeriesRecorder::sample_once() {
  const std::vector<MetricValue> snap = MetricsRegistry::global().snapshot();
  const std::uint64_t now = monotonic_ns();

  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::uint64_t prev_ns = impl_->last_sample_ns;
  const double dt_s =
      prev_ns == 0 ? 0.0 : static_cast<double>(now - prev_ns) / 1e9;
  for (const MetricValue& m : snap) {
    switch (m.kind) {
      case MetricKind::kCounter: {
        auto it = impl_->last_counters.find(m.name);
        const bool have_prev = it != impl_->last_counters.end();
        const std::uint64_t prev = have_prev ? it->second : 0;
        if (have_prev && dt_s > 0.0) {
          const double rate =
              m.count >= prev
                  ? static_cast<double>(m.count - prev) / dt_s
                  : 0.0;  // registry reset between samples
          impl_->series_for(m.name + ".rate").push(SeriesPoint{now, rate});
        }
        impl_->last_counters[m.name] = m.count;
        break;
      }
      case MetricKind::kGauge:
        impl_->series_for(m.name).push(SeriesPoint{now, m.value});
        break;
      case MetricKind::kHistogram: {
        const double p50 = m.quantile(0.50);
        const double p99 = m.quantile(0.99);
        if (std::isnan(p50)) break;  // empty histogram: suppress the series
        impl_->series_for(m.name + ".p50").push(SeriesPoint{now, p50});
        impl_->series_for(m.name + ".p99").push(SeriesPoint{now, p99});
        break;
      }
    }
  }
  impl_->last_sample_ns = now;
  ++impl_->ticks;
}

bool TimeSeriesRecorder::start(std::uint64_t interval_ms) {
  if (interval_ms == 0) return false;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->sampler.joinable()) return false;
  impl_->stopping = false;
  impl_->interval_ms = interval_ms;
  impl_->sampler = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    while (!impl_->stopping) {
      impl_->cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return impl_->stopping; });
      if (impl_->stopping) break;
      lock.unlock();
      sample_once();
      lock.lock();
    }
  });
  return true;
}

void TimeSeriesRecorder::stop() {
  std::thread sampler;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!impl_->sampler.joinable()) return;
    impl_->stopping = true;
    impl_->interval_ms = 0;
    sampler.swap(impl_->sampler);
  }
  impl_->cv.notify_all();
  sampler.join();
}

bool TimeSeriesRecorder::running() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->sampler.joinable();
}

std::uint64_t TimeSeriesRecorder::interval_ms() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->interval_ms;
}

std::uint64_t TimeSeriesRecorder::samples() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->ticks;
}

std::vector<std::string> TimeSeriesRecorder::keys() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->series.size());
  for (const auto& [key, series] : impl_->series)
    if (series.filled > 0) out.push_back(key);
  return out;  // std::map iteration is already sorted
}

std::vector<SeriesPoint> TimeSeriesRecorder::window(const std::string& key,
                                                    std::size_t max) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->series.find(key);
  if (it == impl_->series.end()) return {};
  const Series& s = it->second;
  const std::size_t n =
      max == 0 ? s.filled : std::min(max, s.filled);
  std::vector<SeriesPoint> out;
  out.reserve(n);
  // Oldest resident point sits at `next` once the ring has wrapped.
  const std::size_t start =
      (s.next + s.points.size() - n) % s.points.size();
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(s.points[(start + i) % s.points.size()]);
  return out;
}

}  // namespace rp::obs
