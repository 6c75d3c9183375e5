#include "stream/incremental.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stream_world.hpp"
#include "util/thread_pool.hpp"

namespace rp::stream {
namespace {

using testing::StreamWorld;

ixp::IxpId id_of(const StreamWorld& w, const char* acronym) {
  const ixp::Ixp* ixp = w.eco.find(acronym);
  EXPECT_NE(ixp, nullptr) << acronym;
  return ixp->id();
}

// Blockwise sums regroup the batch sum, so compare bps with a relative
// tolerance; covered counts must be exactly equal.
void expect_same_potential(const offload::Potential& got,
                           const offload::Potential& want) {
  EXPECT_EQ(got.covered_networks, want.covered_networks);
  EXPECT_NEAR(got.inbound_bps, want.inbound_bps,
              1e-9 * std::abs(want.inbound_bps) + 1e-6);
  EXPECT_NEAR(got.outbound_bps, want.outbound_bps,
              1e-9 * std::abs(want.outbound_bps) + 1e-6);
}

TEST(IncrementalOffload, PotentialMatchesBatchAnalyzerPerSet) {
  StreamWorld w;
  for (const offload::PeerGroup group :
       {offload::PeerGroup::kOpen, offload::PeerGroup::kAll}) {
    IncrementalOffload engine(*w.analyzer, group);
    const std::vector<std::vector<const char*>> sets = {
        {}, {"X1"}, {"X2"}, {"X1", "X2"}, {"X1", "X2", "HOME"}};
    for (const auto& acronyms : sets) {
      std::vector<ixp::IxpId> ids;
      for (const char* a : acronyms) ids.push_back(id_of(w, a));
      engine.reset(ids);
      expect_same_potential(engine.potential(),
                            w.analyzer->potential_at(ids, group));
    }
  }
}

TEST(IncrementalOffload, SingleIxpDeltasTrackTheBatchAnswer) {
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  const auto x1 = id_of(w, "X1");
  const auto x2 = id_of(w, "X2");

  engine.add_ixp(x1);
  expect_same_potential(
      engine.potential(),
      w.analyzer->potential_at(std::vector<ixp::IxpId>{x1},
                               offload::PeerGroup::kAll));
  engine.add_ixp(x2);
  expect_same_potential(
      engine.potential(),
      w.analyzer->potential_at(std::vector<ixp::IxpId>{x1, x2},
                               offload::PeerGroup::kAll));
  engine.remove_ixp(x1);
  expect_same_potential(
      engine.potential(),
      w.analyzer->potential_at(std::vector<ixp::IxpId>{x2},
                               offload::PeerGroup::kAll));
}

TEST(IncrementalOffload, AddThenRemoveRestoresExactBytes) {
  // Counts make coverage a multiset: overlapping IXPs (X1 and X2 share 22)
  // survive a remove, and the blockwise total is a pure function of the
  // covered set — so undoing a delta restores bit-identical values.
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  const auto x1 = id_of(w, "X1");
  const auto x2 = id_of(w, "X2");
  engine.add_ixp(x1);
  const offload::Potential before = engine.potential();
  engine.add_ixp(x2);
  engine.remove_ixp(x2);
  const offload::Potential after = engine.potential();
  EXPECT_EQ(after.inbound_bps, before.inbound_bps);
  EXPECT_EQ(after.outbound_bps, before.outbound_bps);
  EXPECT_EQ(after.covered_networks, before.covered_networks);
}

TEST(IncrementalOffload, WhatIfReadsWithoutDisturbingState) {
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  const auto x1 = id_of(w, "X1");
  const auto x2 = id_of(w, "X2");
  engine.add_ixp(x1);
  const offload::Potential base = engine.potential();

  const offload::Potential whatif =
      engine.what_if(std::vector<ixp::IxpId>{x2});
  expect_same_potential(
      whatif, w.analyzer->potential_at(std::vector<ixp::IxpId>{x1, x2},
                                       offload::PeerGroup::kAll));

  // The reached set and the potential are exactly as before the what-if.
  EXPECT_EQ(engine.reached(), std::vector<ixp::IxpId>{x1});
  const offload::Potential again = engine.potential();
  EXPECT_EQ(again.inbound_bps, base.inbound_bps);
  EXPECT_EQ(again.outbound_bps, base.outbound_bps);

  // Already-reached ids in the delta are ignored, not double-counted.
  const offload::Potential same = engine.what_if(std::vector<ixp::IxpId>{x1});
  EXPECT_EQ(same.inbound_bps, base.inbound_bps);
  EXPECT_EQ(same.covered_networks, base.covered_networks);
}

TEST(IncrementalOffload, DeltaErrorsThrow) {
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  const auto x1 = id_of(w, "X1");
  EXPECT_THROW(engine.add_ixp(999), std::invalid_argument);
  EXPECT_THROW(engine.remove_ixp(x1), std::invalid_argument);
  engine.add_ixp(x1);
  EXPECT_THROW(engine.add_ixp(x1), std::invalid_argument);
}

// The marginal gain of one more IXP, as the batch analyzer answers it
// (potential with it minus potential without it), is the what-if delta.
TEST(IncrementalOffload, GainOfMatchesWhatIfDelta) {
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  const auto x1 = id_of(w, "X1");
  const auto x2 = id_of(w, "X2");
  engine.add_ixp(x1);
  const offload::Potential base = engine.potential();
  const offload::Potential whatif =
      engine.what_if(std::vector<ixp::IxpId>{x2});
  const double delta = whatif.total_bps() - base.total_bps();
  const std::vector<ixp::IxpId> reached{x1};
  const std::vector<ixp::IxpId> extended{x1, x2};
  const double gain =
      w.analyzer->potential_at(extended, offload::PeerGroup::kAll)
          .total_bps() -
      w.analyzer->potential_at(reached, offload::PeerGroup::kAll).total_bps();
  EXPECT_GT(gain, 0.0);
  EXPECT_NEAR(delta, gain, 1e-9 * std::abs(gain) + 1e-6);
  // An already-reached IXP adds nothing.
  EXPECT_EQ(engine.what_if(reached).total_bps(), base.total_bps());
}

/// Single-IXP what-if totals for every IXP, on a world whose coverage masks
/// are built under `threads` pool threads.
std::vector<double> what_if_frontier(std::size_t threads) {
  util::ThreadPool::set_global_threads(threads);
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  engine.add_ixp(id_of(w, "X1"));
  std::vector<double> totals;
  for (ixp::IxpId id = 0; id < w.eco.ixps().size(); ++id)
    totals.push_back(
        engine.what_if(std::span<const ixp::IxpId>{&id, 1}).total_bps());
  util::ThreadPool::set_global_threads(0);
  return totals;
}

TEST(IncrementalOffload, FrontierInvariantAcrossThreadWidths) {
  EXPECT_EQ(what_if_frontier(1), what_if_frontier(8));
}

TEST(IncrementalOffload, LivePotentialTracksLatestBin) {
  StreamWorld w;
  IncrementalOffload engine(*w.analyzer, offload::PeerGroup::kAll);
  engine.reset(w.analyzer->all_ixps());
  EXPECT_FALSE(engine.has_live_bin());
  EXPECT_THROW(engine.live_potential(), std::logic_error);

  const auto networks = w.endpoint_networks();
  RateModelBinSource source(*w.rates, networks);
  BinFrame frame;
  ASSERT_TRUE(source.next(frame));
  engine.on_bin(frame);
  ASSERT_TRUE(engine.has_live_bin());
  EXPECT_EQ(engine.live_bin(), 0u);

  // Expected: this bin's rates summed over the batch covered set.
  const auto all = w.analyzer->all_ixps();
  const auto covered =
      w.analyzer->covered_endpoints(all, offload::PeerGroup::kAll);
  double want_in = 0.0;
  double want_out = 0.0;
  for (net::Asn asn : covered) {
    want_in += w.rates->rate_bps(asn, flow::Direction::kInbound, 0);
    want_out += w.rates->rate_bps(asn, flow::Direction::kOutbound, 0);
  }
  const offload::Potential live = engine.live_potential();
  EXPECT_NEAR(live.inbound_bps, want_in, 1e-9 * want_in + 1e-6);
  EXPECT_NEAR(live.outbound_bps, want_out, 1e-9 * want_out + 1e-6);

  // A later bin replaces the live column.
  ASSERT_TRUE(source.next(frame));
  engine.on_bin(frame);
  EXPECT_EQ(engine.live_bin(), 1u);
  BinFrame bad = frame;
  bad.in_bps.pop_back();
  EXPECT_THROW(engine.on_bin(bad), std::invalid_argument);
}

}  // namespace
}  // namespace rp::stream
