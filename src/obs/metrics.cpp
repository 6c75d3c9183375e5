#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace rp::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

bool metrics_env_requested() {
  const char* env = std::getenv("RP_METRICS");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// Fixed shard capacities. Registration beyond these throws, which is a
// programming error (add more instrumentation sites → bump the cap). Fixed
// arrays keep a shard a single allocation and let writers index without any
// synchronization with registration.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxHistograms = 48;
constexpr std::size_t kMaxGauges = 64;

struct HistogramShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  // Min/max are monotone under concurrent relaxed CAS loops.
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
};

// One writer thread's private block. Held by shared_ptr from both the
// registry (for aggregation) and the owning thread's thread_local slot, so
// it survives whichever side is destroyed first.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::unique_ptr<HistogramShard[]> histograms;  // lazily sized kMaxHistograms

  HistogramShard* histogram_block() {
    HistogramShard* block = histogram_ptr.load(std::memory_order_acquire);
    if (block != nullptr) return block;
    std::lock_guard<std::mutex> lock(init_mutex);
    block = histogram_ptr.load(std::memory_order_relaxed);
    if (block == nullptr) {
      histograms = std::make_unique<HistogramShard[]>(kMaxHistograms);
      block = histograms.get();
      histogram_ptr.store(block, std::memory_order_release);
    }
    return block;
  }

  std::atomic<HistogramShard*> histogram_ptr{nullptr};
  std::mutex init_mutex;
};

struct MetricInfo {
  std::string name;
  MetricKind kind;
  Stability stability;
  std::size_t slot;  // index into the per-kind shard arrays
};

}  // namespace

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::vector<MetricInfo> metrics;                       // by id
  // Shard slot by id, for the lock-free update path: a fixed array, so a
  // registration on another thread never moves it under a reader (as a
  // growing `metrics` would). Written once, before the id is handed out.
  std::array<std::size_t, kMaxCounters + kMaxHistograms + kMaxGauges>
      slot_of{};
  std::unordered_map<std::string, std::size_t> by_name;  // name -> id
  std::size_t counter_slots = 0;
  std::size_t histogram_slots = 0;
  std::vector<double> gauges;  // by gauge slot, guarded by mutex
  std::vector<std::shared_ptr<Shard>> shards;  // live + retired, all threads

  Shard* this_thread_shard() {
    thread_local std::shared_ptr<Shard> local;
    if (!local) {
      local = std::make_shared<Shard>();
      std::lock_guard<std::mutex> lock(mutex);
      shards.push_back(local);
    }
    return local.get();
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

// The registry is a leaked singleton (see global()), so the destructor only
// exists for completeness; it never runs in practice, which sidesteps any
// static-destruction ordering against worker threads still holding shards.
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

std::size_t MetricsRegistry::register_metric(const std::string& name,
                                             MetricKind kind,
                                             Stability stability) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->by_name.find(name);
  if (it != impl_->by_name.end()) {
    const MetricInfo& existing = impl_->metrics[it->second];
    if (existing.kind != kind) {
      throw std::logic_error("obs: metric '" + name +
                             "' re-registered with a different kind");
    }
    return it->second;
  }
  std::size_t slot = 0;
  switch (kind) {
    case MetricKind::kCounter:
      slot = impl_->counter_slots++;
      if (slot >= kMaxCounters) {
        throw std::logic_error("obs: counter capacity exceeded; bump kMaxCounters");
      }
      break;
    case MetricKind::kHistogram:
      slot = impl_->histogram_slots++;
      if (slot >= kMaxHistograms) {
        throw std::logic_error(
            "obs: histogram capacity exceeded; bump kMaxHistograms");
      }
      break;
    case MetricKind::kGauge:
      slot = impl_->gauges.size();
      if (slot >= kMaxGauges) {
        throw std::logic_error("obs: gauge capacity exceeded; bump kMaxGauges");
      }
      impl_->gauges.push_back(0.0);
      break;
  }
  std::size_t id = impl_->metrics.size();
  impl_->metrics.push_back(MetricInfo{name, kind, stability, slot});
  impl_->slot_of[id] = slot;
  impl_->by_name.emplace(name, id);
  return id;
}

void MetricsRegistry::counter_add(std::size_t id, std::uint64_t delta) {
  const std::size_t slot = impl_->slot_of[id];
  impl_->this_thread_shard()->counters[slot].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(std::size_t id, double value) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->gauges[impl_->metrics[id].slot] = value;
}

void MetricsRegistry::histogram_record(std::size_t id, std::uint64_t value) {
  const std::size_t slot = impl_->slot_of[id];
  HistogramShard& h =
      impl_->this_thread_shard()->histogram_block()[slot];
  h.buckets[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = h.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !h.min.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = h.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !h.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double MetricValue::quantile(double q) const {
  if (kind != MetricKind::kHistogram || count == 0)
    return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, count]; rank r means "the r-th smallest sample".
  const double target = std::max(1.0, q * static_cast<double>(count));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    // Bucket 0 holds exactly the value 0; bucket b holds [2^(b-1), 2^b).
    if (b == 0) return 0.0;
    const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
    const double hi = b >= 63 ? 2.0 * lo : static_cast<double>(std::uint64_t{1} << b);
    const double fraction =
        (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    const double estimate = lo + fraction * (hi - lo);
    return std::clamp(estimate, static_cast<double>(min),
                      static_cast<double>(max));
  }
  return static_cast<double>(max);
}

std::vector<MetricValue> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<MetricValue> out;
  out.reserve(impl_->metrics.size());
  for (const MetricInfo& info : impl_->metrics) {
    MetricValue v;
    v.name = info.name;
    v.kind = info.kind;
    v.stability = info.stability;
    switch (info.kind) {
      case MetricKind::kCounter:
        for (const auto& shard : impl_->shards) {
          v.count +=
              shard->counters[info.slot].load(std::memory_order_relaxed);
        }
        break;
      case MetricKind::kGauge:
        v.value = impl_->gauges[info.slot];
        break;
      case MetricKind::kHistogram: {
        std::uint64_t min = ~std::uint64_t{0};
        for (const auto& shard : impl_->shards) {
          HistogramShard* block =
              shard->histogram_ptr.load(std::memory_order_acquire);
          if (block == nullptr) continue;
          const HistogramShard& h = block[info.slot];
          for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            const std::uint64_t n =
                h.buckets[b].load(std::memory_order_relaxed);
            v.buckets[b] += n;
            v.count += n;
          }
          v.sum += h.sum.load(std::memory_order_relaxed);
          min = std::min(min, h.min.load(std::memory_order_relaxed));
          v.max = std::max(v.max, h.max.load(std::memory_order_relaxed));
        }
        v.min = v.count == 0 ? 0 : min;
        break;
      }
    }
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<MetricValue> MetricsRegistry::deterministic_snapshot() const {
  std::vector<MetricValue> all = snapshot();
  std::vector<MetricValue> out;
  for (MetricValue& v : all) {
    if (v.stability == Stability::kDeterministic) out.push_back(std::move(v));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& shard : impl_->shards) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    HistogramShard* block =
        shard->histogram_ptr.load(std::memory_order_acquire);
    if (block == nullptr) continue;
    for (std::size_t s = 0; s < kMaxHistograms; ++s) {
      HistogramShard& h = block[s];
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
    }
  }
  for (double& g : impl_->gauges) g = 0.0;
}

}  // namespace rp::obs
