#include "obs/request_trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

namespace rp::obs {

RequestTracer::RequestTracer() {
  for (MetricValue& type : types_) type.kind = MetricKind::kHistogram;
}

std::uint64_t RequestTracer::next_request_id() {
  static std::atomic<std::uint64_t> counter{0};
  return 1 + counter.fetch_add(1, std::memory_order_relaxed);
}

void RequestTracer::record(RequestRecord record) {
  const std::uint64_t total = record.total_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  record.seq = ++seq_;
  ring_[(record.seq - 1) % ring_.size()] = record;

  MetricValue& agg = types_[record.type < kMaxTypes ? record.type : 0];
  if (agg.count == 0 || total < agg.min) agg.min = total;
  agg.max = std::max(agg.max, total);
  ++agg.count;
  agg.sum += total;
  ++agg.buckets[std::bit_width(total)];
}

std::uint64_t RequestTracer::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

std::vector<RequestRecord> RequestTracer::recent(std::size_t max) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(seq_, ring_.size()));
  if (max != 0) n = std::min(n, max);
  std::vector<RequestRecord> out;
  out.reserve(n);
  for (std::uint64_t seq = seq_ - n + 1; seq <= seq_; ++seq)
    out.push_back(ring_[(seq - 1) % ring_.size()]);
  return out;
}

std::vector<RequestRecord> RequestTracer::slowest(std::size_t k) const {
  std::vector<RequestRecord> all = recent(0);
  const auto slower = [](const RequestRecord& a, const RequestRecord& b) {
    if (a.total_ns() != b.total_ns()) return a.total_ns() > b.total_ns();
    return a.seq < b.seq;
  };
  const std::size_t top = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(top), all.end(),
                    slower);
  all.resize(top);
  return all;
}

std::vector<TypeLatency> RequestTracer::type_latencies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TypeLatency> out;
  for (std::size_t t = 0; t < kMaxTypes; ++t) {
    const MetricValue& agg = types_[t];
    if (agg.count == 0) continue;
    TypeLatency latency;
    latency.type = static_cast<std::uint8_t>(t);
    latency.count = agg.count;
    latency.p50_ns = agg.quantile(0.50);
    latency.p99_ns = agg.quantile(0.99);
    latency.max_ns = agg.max;
    out.push_back(latency);
  }
  return out;
}

}  // namespace rp::obs
