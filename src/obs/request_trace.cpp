#include "obs/request_trace.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"

namespace rp::obs {

namespace {

// One ring slot. Every field is an atomic so single-writer stores can race
// benignly with stats readers; `seq` is the publication marker — the writer
// clears it before touching the payload and stores the new sequence last, and
// a reader that sees `seq` change across its field loads discards the torn
// record. Payload stores are release and payload loads acquire: that orders
// them against the bracketing `seq` accesses without std::atomic_thread_fence,
// which GCC rejects under -fsanitize=thread (-Wtsan) because TSan cannot
// model fences.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> request_id{0};
  std::atomic<std::uint64_t> type_ok{0};  // type | (ok << 8)
  std::atomic<std::uint64_t> world_digest{0};
  std::atomic<std::uint64_t> accept_ns{0};
  std::atomic<std::uint64_t> queue_ns{0};
  std::atomic<std::uint64_t> pool_ns{0};
  std::atomic<std::uint64_t> compute_ns{0};
  std::atomic<std::uint64_t> write_ns{0};
};

// One recording thread's ring. `next` is plain: exactly one thread writes it.
struct Ring {
  explicit Ring(std::size_t capacity) : slots(capacity) {}
  std::vector<Slot> slots;
  std::uint64_t next = 0;
};

// Cumulative per-type latency aggregate (log2 buckets like the metrics
// histograms, so quantiles reuse MetricValue::quantile).
struct TypeAggregate {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

}  // namespace

struct RequestTracer::Impl {
  mutable std::mutex mutex;
  std::vector<std::shared_ptr<Ring>> rings;  // live + retired threads
  std::array<TypeAggregate, RequestTracer::kMaxTypes> types{};
  std::uint64_t generation = 0;  // bumped by reset(); invalidates TL rings

  Ring* this_thread_ring() {
    thread_local std::shared_ptr<Ring> local;
    thread_local std::uint64_t local_generation = ~std::uint64_t{0};
    std::uint64_t current = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      current = generation;
    }
    if (!local || local_generation != current) {
      local = std::make_shared<Ring>(kRingCapacity);
      local_generation = current;
      std::lock_guard<std::mutex> lock(mutex);
      rings.push_back(local);
    }
    return local.get();
  }
};

RequestTracer::RequestTracer() : impl_(new Impl) {}

RequestTracer& RequestTracer::global() {
  // Leaked like the MetricsRegistry: worker threads may record during their
  // own teardown at process exit.
  static RequestTracer* instance = new RequestTracer();
  return *instance;
}

void RequestTracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void RequestTracer::record(RequestRecord record) {
  if (!enabled()) return;
  record.seq = 1 + seq_counter_.fetch_add(1, std::memory_order_relaxed);

  Ring* ring = impl_->this_thread_ring();
  Slot& slot = ring->slots[ring->next % ring->slots.size()];
  ++ring->next;
  // Unpublish, fill, publish: a reader that loads fields between the two
  // seq stores sees them bracketed by different values and drops the record.
  // Each release payload store keeps the seq=0 store visible before it.
  slot.seq.store(0, std::memory_order_release);
  slot.request_id.store(record.request_id, std::memory_order_release);
  slot.type_ok.store(static_cast<std::uint64_t>(record.type) |
                         (record.ok ? 0x100u : 0u),
                     std::memory_order_release);
  slot.world_digest.store(record.world_digest, std::memory_order_release);
  slot.accept_ns.store(record.accept_ns, std::memory_order_release);
  slot.queue_ns.store(record.queue_ns, std::memory_order_release);
  slot.pool_ns.store(record.pool_ns, std::memory_order_release);
  slot.compute_ns.store(record.compute_ns, std::memory_order_release);
  slot.write_ns.store(record.write_ns, std::memory_order_release);
  slot.seq.store(record.seq, std::memory_order_release);

  const std::size_t type_slot =
      record.type < kMaxTypes ? record.type : 0;
  TypeAggregate& agg = impl_->types[type_slot];
  const std::uint64_t total_ns =
      record.queue_ns + record.pool_ns + record.compute_ns + record.write_ns;
  agg.count.fetch_add(1, std::memory_order_relaxed);
  agg.sum.fetch_add(total_ns, std::memory_order_relaxed);
  agg.buckets[std::bit_width(total_ns)].fetch_add(1,
                                                  std::memory_order_relaxed);
  std::uint64_t seen = agg.min.load(std::memory_order_relaxed);
  while (total_ns < seen && !agg.min.compare_exchange_weak(
                                seen, total_ns, std::memory_order_relaxed)) {
  }
  seen = agg.max.load(std::memory_order_relaxed);
  while (total_ns > seen && !agg.max.compare_exchange_weak(
                                seen, total_ns, std::memory_order_relaxed)) {
  }
}

namespace {

// Reads one slot with the torn-record check; returns false when the slot is
// empty or was overwritten while being read. Acquire payload loads keep the
// final seq re-check from being observed before them.
bool read_slot(const Slot& slot, RequestRecord& out) {
  const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
  if (seq_before == 0) return false;
  out.seq = seq_before;
  out.request_id = slot.request_id.load(std::memory_order_acquire);
  const std::uint64_t type_ok = slot.type_ok.load(std::memory_order_acquire);
  out.type = static_cast<std::uint8_t>(type_ok & 0xff);
  out.ok = (type_ok & 0x100u) != 0;
  out.world_digest = slot.world_digest.load(std::memory_order_acquire);
  out.accept_ns = slot.accept_ns.load(std::memory_order_acquire);
  out.queue_ns = slot.queue_ns.load(std::memory_order_acquire);
  out.pool_ns = slot.pool_ns.load(std::memory_order_acquire);
  out.compute_ns = slot.compute_ns.load(std::memory_order_acquire);
  out.write_ns = slot.write_ns.load(std::memory_order_acquire);
  return slot.seq.load(std::memory_order_acquire) == seq_before;
}

}  // namespace

std::vector<RequestRecord> RequestTracer::recent(std::size_t max) const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    rings = impl_->rings;
  }
  std::vector<RequestRecord> out;
  RequestRecord record;
  for (const auto& ring : rings)
    for (const Slot& slot : ring->slots)
      if (read_slot(slot, record)) out.push_back(record);
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.seq < b.seq;
            });
  if (max != 0 && out.size() > max)
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(max));
  return out;
}

std::vector<RequestRecord> RequestTracer::slowest(std::size_t k) const {
  std::vector<RequestRecord> all = recent(0);
  std::sort(all.begin(), all.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              if (a.compute_ns != b.compute_ns)
                return a.compute_ns > b.compute_ns;
              return a.seq < b.seq;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<TypeLatency> RequestTracer::type_latencies() const {
  std::vector<TypeLatency> out;
  for (std::size_t t = 0; t < kMaxTypes; ++t) {
    const TypeAggregate& agg = impl_->types[t];
    const std::uint64_t count = agg.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    // Borrow MetricValue::quantile: same log2 buckets, same clamp contract.
    MetricValue value;
    value.kind = MetricKind::kHistogram;
    value.count = count;
    value.sum = agg.sum.load(std::memory_order_relaxed);
    value.min = agg.min.load(std::memory_order_relaxed);
    value.max = agg.max.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      value.buckets[b] = agg.buckets[b].load(std::memory_order_relaxed);
    TypeLatency latency;
    latency.type = static_cast<std::uint8_t>(t);
    latency.count = count;
    latency.p50_ns = value.quantile(0.50);
    latency.p99_ns = value.quantile(0.99);
    latency.max_ns = value.max;
    out.push_back(latency);
  }
  return out;
}

void RequestTracer::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  // Detach every ring (threads re-register against the new generation) and
  // zero the aggregates and counters.
  impl_->rings.clear();
  ++impl_->generation;
  for (TypeAggregate& agg : impl_->types) {
    agg.count.store(0, std::memory_order_relaxed);
    agg.sum.store(0, std::memory_order_relaxed);
    agg.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    agg.max.store(0, std::memory_order_relaxed);
    for (auto& bucket : agg.buckets)
      bucket.store(0, std::memory_order_relaxed);
  }
  id_counter_.store(0, std::memory_order_relaxed);
  seq_counter_.store(0, std::memory_order_relaxed);
}

}  // namespace rp::obs
