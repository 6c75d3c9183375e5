// rp::obs request tracing — per-request phase-latency records for the serve
// daemon (and any future request-shaped workload).
//
// Every accepted frame gets a server-side request id; the daemon threads it
// through accept → parse → enqueue → batch-group → pool lookup → execute →
// respond and, when the request completes, records one RequestRecord with
// the per-phase breakdown (queue wait, pool/world wait, compute, response
// write). Records land in a lock-free per-thread ring:
//
//   - one writer per ring (the recording thread), so stores need no CAS;
//   - every field is a relaxed atomic, so a concurrent reader (the stats
//     surface) is TSan-clean. A reader can observe a record mid-overwrite
//     once the ring wraps — acceptable for telemetry, and the completion
//     sequence number lets it discard records that tore;
//   - bounded memory: kRingCapacity (256) slots per thread.
//
// The tracer also keeps cumulative per-request-type log2 latency histograms
// (the stats surface's p50/p99 source) and a deterministic slow-query view:
// slowest(k) orders by compute time descending with (compute_ns, seq) as the
// total order, so two reads of a quiescent tracer agree exactly.
//
// Everything here measures wall-clock phases, i.e. scheduling: none of it
// is registered in the MetricsRegistry's deterministic namespace, so
// deterministic_snapshot() stays clean by construction.
//
// Disarmed cost is one branch (same discipline as metrics/trace/fault).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
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
};

/// Per-request-type latency summary aggregated since the tracer was reset.
struct TypeLatency {
  std::uint8_t type = 0;
  std::uint64_t count = 0;
  double p50_ns = 0.0;  ///< Log2-bucket interpolated, clamped to [min,max].
  double p99_ns = 0.0;
  std::uint64_t max_ns = 0;
};

/// The process-wide request tracer. Like the MetricsRegistry it is a leaked
/// singleton armed by one flag; the serve daemon arms it in start().
class RequestTracer {
 public:
  static RequestTracer& global();

  /// Highest request type tracked by the per-type aggregates (serve types
  /// are 1..8; anything above maps to slot 0 = "other").
  static constexpr std::size_t kMaxTypes = 16;

  void set_enabled(bool on);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Ring capacity per recording thread.
  std::size_t ring_capacity() const { return kRingCapacity; }

  /// Issues the next server-side request id (1-based, monotone).
  std::uint64_t next_request_id() {
    return 1 + id_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one completed request (no-op while disabled). `record.seq` is
  /// assigned here.
  void record(RequestRecord record);

  /// Completed requests recorded so far (monotone; survives ring wrap).
  std::uint64_t completed() const {
    return seq_counter_.load(std::memory_order_relaxed);
  }

  /// The most recent completed requests across every thread ring, ordered
  /// oldest → newest by completion sequence, at most `max` of them (0 = all
  /// still resident in the rings). Records that tore mid-overwrite are
  /// dropped.
  std::vector<RequestRecord> recent(std::size_t max = 0) const;

  /// The slow-query log: the top-`k` resident records by compute time,
  /// ordered (compute_ns desc, seq asc) — a deterministic total order, so
  /// repeated reads of a quiescent tracer agree exactly.
  std::vector<RequestRecord> slowest(std::size_t k) const;

  /// Per-type cumulative latency summaries (total request latency: queue +
  /// pool + compute + write), for every type with at least one completion,
  /// ordered by type.
  std::vector<TypeLatency> type_latencies() const;

  /// Zeroes rings, aggregates, and both counters. Call only while no
  /// requests are in flight (tests, daemon restart).
  void reset();

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

 private:
  RequestTracer();
  struct Impl;
  Impl* impl_;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> id_counter_{0};
  std::atomic<std::uint64_t> seq_counter_{0};
};

}  // namespace rp::obs
