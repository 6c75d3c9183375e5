// Unit tests of the rp::obs request tracer: ring residency and wrap,
// deterministic slow-query ordering by total latency, per-type latency
// aggregates, and cross-thread sequence order.
#include "obs/request_trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace rp::obs {
namespace {

RequestRecord make_record(std::uint64_t request_id, std::uint8_t type,
                          std::uint64_t compute_ns) {
  RequestRecord record;
  record.request_id = request_id;
  record.type = type;
  record.world_digest = 0xabcdef;
  record.accept_ns = 1000 + request_id;
  record.queue_ns = 10;
  record.pool_ns = 20;
  record.compute_ns = compute_ns;
  record.write_ns = 5;
  return record;
}

TEST(RequestTracer, RequestIdsAreMonotoneAndOneBased) {
  const std::uint64_t first = RequestTracer::next_request_id();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(RequestTracer::next_request_id(), first + 1);
  EXPECT_EQ(RequestTracer::next_request_id(), first + 2);
}

TEST(RequestTracer, RecentComesBackOldestToNewestWithFieldsIntact) {
  RequestTracer tracer;
  tracer.record(make_record(11, 1, 300));
  tracer.record(make_record(12, 2, 100));
  tracer.record(make_record(13, 1, 200));
  EXPECT_EQ(tracer.completed(), 3u);

  const std::vector<RequestRecord> all = tracer.recent();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].request_id, 11u);
  EXPECT_EQ(all[1].request_id, 12u);
  EXPECT_EQ(all[2].request_id, 13u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].seq, all[i].seq);

  // Full phase breakdown round-trips through the ring.
  EXPECT_EQ(all[1].type, 2u);
  EXPECT_TRUE(all[1].ok);
  EXPECT_EQ(all[1].world_digest, 0xabcdefu);
  EXPECT_EQ(all[1].queue_ns, 10u);
  EXPECT_EQ(all[1].pool_ns, 20u);
  EXPECT_EQ(all[1].compute_ns, 100u);
  EXPECT_EQ(all[1].write_ns, 5u);

  // `max` trims from the oldest side.
  const std::vector<RequestRecord> last_two = tracer.recent(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0].request_id, 12u);
  EXPECT_EQ(last_two[1].request_id, 13u);
}

TEST(RequestTracer, SlowestOrdersByComputeDescThenSeqAsc) {
  RequestTracer tracer;
  // make_record's other phases are constant, so the compute order is the
  // total-latency order here.
  tracer.record(make_record(1, 1, 500));
  tracer.record(make_record(2, 1, 900));
  tracer.record(make_record(3, 1, 500));  // Ties with id 1: seq breaks it.
  tracer.record(make_record(4, 1, 100));

  const std::vector<RequestRecord> top = tracer.slowest(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].request_id, 2u);
  EXPECT_EQ(top[1].request_id, 1u);  // Equal compute: earlier seq first.
  EXPECT_EQ(top[2].request_id, 3u);

  // Deterministic: a second read of the quiescent tracer agrees exactly.
  const std::vector<RequestRecord> again = tracer.slowest(3);
  ASSERT_EQ(again.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(again[i].request_id, top[i].request_id);

  // Asking for more than resident returns everything, still ordered.
  EXPECT_EQ(tracer.slowest(100).size(), 4u);
}

TEST(RequestTracer, SlowestRanksByTotalLatency) {
  RequestTracer tracer;
  // A cold world load lands in pool_ns: that request took longest overall
  // even though its compute phase is the shorter one.
  RequestRecord compute_heavy = make_record(1, 3, 5000);  // total 5035
  RequestRecord pool_heavy = make_record(2, 3, 100);
  pool_heavy.pool_ns = 1'000'000;                          // total 1000115
  tracer.record(compute_heavy);
  tracer.record(pool_heavy);

  const std::vector<RequestRecord> top = tracer.slowest(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].request_id, 2u);
  EXPECT_EQ(top[0].total_ns(), 1'000'115u);
  EXPECT_EQ(top[1].request_id, 1u);
}

TEST(RequestTracer, TypeLatenciesAggregatePerType) {
  RequestTracer tracer;
  // Total latency is queue + pool + compute + write = 35 + compute.
  tracer.record(make_record(1, 1, 65));    // total 100
  tracer.record(make_record(2, 1, 165));   // total 200
  tracer.record(make_record(3, 3, 9965));  // total 10000

  const std::vector<TypeLatency> latencies = tracer.type_latencies();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_EQ(latencies[0].type, 1u);
  EXPECT_EQ(latencies[0].count, 2u);
  EXPECT_EQ(latencies[0].max_ns, 200u);
  EXPECT_GE(latencies[0].p50_ns, 100.0);
  EXPECT_LE(latencies[0].p50_ns, 200.0);
  EXPECT_LE(latencies[0].p50_ns, latencies[0].p99_ns);

  EXPECT_EQ(latencies[1].type, 3u);
  EXPECT_EQ(latencies[1].count, 1u);
  EXPECT_EQ(latencies[1].max_ns, 10000u);
  EXPECT_GE(latencies[1].p99_ns, 10000.0 * 0.5);
  EXPECT_LE(latencies[1].p99_ns, 10000.0);
}

TEST(RequestTracer, RingWrapKeepsTheNewestRecords) {
  RequestTracer tracer;
  const std::size_t capacity = tracer.ring_capacity();
  ASSERT_GE(capacity, 16u);
  const std::size_t total = capacity + 8;
  for (std::size_t i = 1; i <= total; ++i)
    tracer.record(make_record(i, 1, i));
  EXPECT_EQ(tracer.completed(), total);  // Monotone across the wrap.

  const std::vector<RequestRecord> resident = tracer.recent();
  ASSERT_EQ(resident.size(), capacity);
  // The 8 oldest fell off; the survivors are contiguous and ordered.
  EXPECT_EQ(resident.front().request_id, 9u);
  EXPECT_EQ(resident.back().request_id, total);
}

TEST(RequestTracer, CrossThreadRecordsMergeInSequenceOrder) {
  RequestTracer tracer;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 50;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &tracer] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        tracer.record(make_record(t * kPerThread + i + 1, 1, i));
    });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(tracer.completed(), kThreads * kPerThread);
  const std::vector<RequestRecord> all = tracer.recent();
  // The ring holds all 200 records; they come back strictly ordered by
  // completion sequence whichever thread recorded them.
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].seq, all[i].seq);

  const auto latencies = tracer.type_latencies();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].count, kThreads * kPerThread);
}

}  // namespace
}  // namespace rp::obs
