#include "stream/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "fault/fault.hpp"
#include "stream_world.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace rp::stream {
namespace {

using testing::StreamWorld;

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

std::vector<std::uint8_t> ingest_bytes(const StreamIngest& ingest) {
  io::ByteWriter writer;
  ingest.serialize(writer);
  return writer.take();
}

TEST(StreamSession, RejectsMismatchedSchema) {
  StreamWorld w;
  auto networks = w.endpoint_networks();
  std::swap(networks.front(), networks.back());
  RateModelBinSource source(*w.rates, networks);
  EXPECT_THROW(StreamSession(source, *w.analyzer, offload::PeerGroup::kAll),
               std::invalid_argument);
}

TEST(StreamSession, StreamingP95MatchesBatchBitForBit) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll);
  const std::uint64_t consumed = session.run();
  EXPECT_EQ(consumed, w.rates->bin_count());

  // Batch path: aggregate series over the same network orders, then the
  // operator's billing percentile.
  const auto networks = w.endpoint_networks();
  const auto all = w.analyzer->all_ixps();
  const auto covered =
      w.analyzer->covered_endpoints(all, offload::PeerGroup::kAll);
  for (const flow::Direction dir :
       {flow::Direction::kInbound, flow::Direction::kOutbound}) {
    EXPECT_EQ(session.ingest().transit_p95(dir),
              util::p95_billing_rate(w.rates->aggregate_series(networks, dir)));
    EXPECT_EQ(session.ingest().offload_p95(dir),
              util::p95_billing_rate(w.rates->aggregate_series(covered, dir)));
  }
}

TEST(StreamSession, IngestStateInvariantAcrossThreadWidths) {
  StreamWorld w;
  std::vector<std::uint8_t> narrow;
  std::vector<std::uint8_t> wide;
  for (const unsigned threads : {1u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    RateModelBinSource source(*w.rates, w.endpoint_networks());
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll);
    session.run();
    (threads == 1 ? narrow : wide) = ingest_bytes(session.ingest());
  }
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(narrow, wide);
}

TEST(StreamSession, OrderedArrivalContractEnforced) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll);
  session.run(3);
  BinFrame gap;
  source.seek(7);
  ASSERT_TRUE(source.next(gap));
  util::DynamicBitset covered = session.ingest().covered();
  StreamIngest copy(session.ingest().schema(), std::move(covered));
  EXPECT_THROW(copy.consume(gap), std::invalid_argument);
}

TEST(StreamSession, KillResumeReproducesUninterruptedBytes) {
  StreamWorld w;
  const auto log_path = temp_file("rp_stream_session_log.rpsnap");
  const auto ckpt_path = temp_file("rp_stream_session_ckpt.rpsnap");
  {
    RateModelBinSource recorder(*w.rates, w.endpoint_networks());
    ASSERT_EQ(write_bin_log(recorder, 200, log_path), 200u);
  }

  // A reached set other than the session's default (every IXP), so only a
  // checkpoint that restores it reproduces the live view.
  const ixp::Ixp* x1 = w.eco.find("X1");
  ASSERT_NE(x1, nullptr);
  const std::vector<ixp::IxpId> reached{x1->id()};

  // Reference: one uninterrupted replay.
  std::vector<std::uint8_t> reference;
  offload::Potential reference_live;
  {
    BinLogSource source(log_path);
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll);
    session.incremental().reset(reached);
    session.run();
    reference = ingest_bytes(session.ingest());
    ASSERT_EQ(session.incremental().live_bin(), 199u);
    reference_live = session.incremental().live_potential();
  }

  // Replay killed mid-stream by the stream.bin fault site, after the
  // checkpoint at bin 120 (the fault fires on the 150th frame read).
  StreamSessionConfig config;
  config.checkpoint_every = 40;
  config.checkpoint_path = ckpt_path;
  fault::arm(std::string(fault::kSiteStreamBin) + ":nth=150");
  {
    BinLogSource source(log_path);
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                          config);
    session.incremental().reset(reached);
    EXPECT_THROW(session.run(), fault::InjectedFault);
  }
  fault::disarm_all();
  ASSERT_TRUE(std::filesystem::exists(ckpt_path));

  // A fresh process resumes from the checkpoint and finishes the stream.
  {
    BinLogSource source(log_path);
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                          config);
    ASSERT_TRUE(session.resume());
    EXPECT_EQ(session.ingest().bins(), 120u);
    session.run();
    EXPECT_EQ(session.ingest().bins(), 200u);
    EXPECT_EQ(ingest_bytes(session.ingest()), reference);

    IncrementalOffload& live = session.incremental();
    EXPECT_EQ(live.reached(), reached);
    EXPECT_EQ(live.live_bin(), 199u);
    const offload::Potential potential = live.live_potential();
    EXPECT_EQ(potential.inbound_bps, reference_live.inbound_bps);
    EXPECT_EQ(potential.outbound_bps, reference_live.outbound_bps);
    EXPECT_EQ(potential.covered_networks, reference_live.covered_networks);
  }
  std::filesystem::remove(log_path);
  std::filesystem::remove(ckpt_path);
}

TEST(StreamSession, ResumeWithoutCheckpointReturnsFalse) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  StreamSessionConfig config;
  config.checkpoint_path = temp_file("rp_stream_session_missing.rpsnap");
  std::filesystem::remove(config.checkpoint_path);
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                        config);
  EXPECT_FALSE(session.resume());
}

TEST(StreamSession, ResumeRejectsACorruptCheckpoint) {
  StreamWorld w;
  const auto ckpt_path = temp_file("rp_stream_session_corrupt.rpsnap");
  StreamSessionConfig config;
  config.checkpoint_path = ckpt_path;
  {
    RateModelBinSource source(*w.rates, w.endpoint_networks());
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                          config);
    session.run(10);
    session.checkpoint();
  }
  const auto size = std::filesystem::file_size(ckpt_path);
  std::filesystem::resize_file(ckpt_path, size - 7);
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                        config);
  EXPECT_THROW(session.resume(), io::SnapshotError);
  std::filesystem::remove(ckpt_path);
}

}  // namespace
}  // namespace rp::stream
