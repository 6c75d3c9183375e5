// rp::obs request tracing — per-request phase-latency records for the serve
// daemon (and any future request-shaped workload).
//
// Every accepted frame gets a server-side request id; the daemon threads it
// through accept → parse → enqueue → batch-group → pool lookup → execute →
// respond and, when the request completes, records one RequestRecord with
// the per-phase breakdown (queue wait, pool/world wait, compute, response
// write). A tracer is a plain object its owner holds (the daemon keeps one),
// so two owners in one process never see each other's requests:
//
//   - one ring of kRingCapacity (256) records, slot (seq − 1) % capacity,
//     and cumulative per-type log2 latency histograms, all under one mutex;
//   - a record is eleven integers and one lock hold, so writers (the I/O
//     thread and the dispatcher) and the stats reader never see a torn
//     record;
//   - bounded memory: one ring per tracer, however many threads record.
//
// The slow-query view is deterministic: slowest(k) orders by total latency
// descending with (total, seq) as the total order, so two reads of a
// quiescent tracer agree exactly.
//
// Everything here measures wall-clock phases, i.e. scheduling: none of it
// is registered in the MetricsRegistry's deterministic namespace, so
// deterministic_snapshot() stays clean by construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace rp::obs {

/// One completed request. All times in nanoseconds; phases sum to roughly
/// complete_ns - accept_ns (response write ends the record).
struct RequestRecord {
  std::uint64_t seq = 0;         ///< Tracer-assigned completion sequence (1-based).
  std::uint64_t request_id = 0;  ///< Server-side request id (daemon-assigned).
  std::uint8_t type = 0;         ///< Protocol request type (serve::RequestType).
  bool ok = true;                ///< Response status was kOk.
  std::uint64_t world_digest = 0;  ///< Config digest, 0 for worldless requests.
  std::uint64_t accept_ns = 0;   ///< monotonic_ns at admission (post-parse).
  std::uint64_t queue_ns = 0;    ///< Waiting in the admission queue.
  std::uint64_t pool_ns = 0;     ///< World acquire + artifact prewarm.
  std::uint64_t compute_ns = 0;  ///< execute_request proper.
  std::uint64_t write_ns = 0;    ///< Response encode + socket write.
  std::uint8_t built = 0;        ///< Owner bits: what its dispatch built.

  /// Total request latency: queue + pool + compute + write.
  std::uint64_t total_ns() const {
    return queue_ns + pool_ns + compute_ns + write_ns;
  }
};

/// Per-request-type latency summary aggregated over the tracer's lifetime.
struct TypeLatency {
  std::uint8_t type = 0;
  std::uint64_t count = 0;
  double p50_ns = 0.0;  ///< Log2-bucket interpolated, clamped to [min,max].
  double p99_ns = 0.0;
  std::uint64_t max_ns = 0;
};

/// One owner's request tracer. Every member is safe to call concurrently.
class RequestTracer {
 public:
  /// Per-type aggregate slots (serve types are 1..10; a type of
  /// kMaxTypes or more lands in slot 0 = "other").
  static constexpr std::size_t kMaxTypes = 16;

  RequestTracer();

  /// Issues the next server-side request id (1-based, monotone). One counter
  /// serves the whole process, so Chrome-trace flow ids from two tracers'
  /// owners never collide.
  static std::uint64_t next_request_id();

  /// Ring capacity (records resident at once).
  std::size_t ring_capacity() const { return kRingCapacity; }

  /// Records one completed request; `record.seq` is assigned here.
  void record(RequestRecord record);

  /// Completed requests recorded so far (monotone; survives ring wrap).
  std::uint64_t completed() const;

  /// The most recent completed requests, ordered oldest → newest by
  /// completion sequence, at most `max` of them (0 = all still resident).
  std::vector<RequestRecord> recent(std::size_t max = 0) const;

  /// The slow-query log: the top-`k` resident records by total latency,
  /// ordered (total_ns desc, seq asc) — a deterministic total order, so
  /// repeated reads of a quiescent tracer agree exactly.
  std::vector<RequestRecord> slowest(std::size_t k) const;

  /// Per-type cumulative latency summaries (total request latency), for
  /// every type with at least one completion, ordered by type.
  std::vector<TypeLatency> type_latencies() const;

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

 private:
  mutable std::mutex mutex_;
  std::uint64_t seq_ = 0;
  std::array<RequestRecord, kRingCapacity> ring_{};
  // Log2 histograms of total latency per type, read through
  // MetricValue::quantile like the registry's own histograms.
  std::array<MetricValue, kMaxTypes> types_{};
};

}  // namespace rp::obs
