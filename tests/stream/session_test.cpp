#include "stream/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <utility>
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

// The live view is the offload sample the ingest folded for the latest bin:
// bin by bin it equals the batch offload series over the covered endpoints.
TEST(StreamSession, LiveViewIsTheBatchOffloadSeriesPerBin) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll);
  const StreamIngest& ingest = session.ingest();
  EXPECT_FALSE(ingest.has_live_bin());
  EXPECT_THROW(ingest.live_offload(flow::Direction::kInbound),
               std::logic_error);

  const auto covered = w.analyzer->covered_endpoints(
      w.analyzer->all_ixps(), offload::PeerGroup::kAll);
  const auto batch_in =
      w.rates->aggregate_series(covered, flow::Direction::kInbound);
  const auto batch_out =
      w.rates->aggregate_series(covered, flow::Direction::kOutbound);
  for (std::uint64_t bin = 0; bin < w.rates->bin_count(); ++bin) {
    ASSERT_EQ(session.run(1), 1u);
    ASSERT_TRUE(ingest.has_live_bin());
    ASSERT_EQ(ingest.next_bin() - 1, bin);
    ASSERT_EQ(ingest.live_offload(flow::Direction::kInbound), batch_in[bin]);
    ASSERT_EQ(ingest.live_offload(flow::Direction::kOutbound),
              batch_out[bin]);
  }
}

/// A one-bin ingest over `covered` fed the §4-average endpoint rates: its
/// live view is the offload potential of the covered set.
std::pair<double, double> average_rate_offload(
    const StreamWorld& w, const util::DynamicBitset& covered) {
  BinFrame frame;
  BinSchema schema;
  for (const auto& endpoint : w.analyzer->transit_endpoints()) {
    schema.networks.push_back(endpoint.asn);
    frame.in_bps.push_back(endpoint.inbound_bps);
    frame.out_bps.push_back(endpoint.outbound_bps);
  }
  StreamIngest ingest(std::move(schema), covered);
  ingest.consume(frame);
  return {ingest.live_offload(flow::Direction::kInbound),
          ingest.live_offload(flow::Direction::kOutbound)};
}

// The ingest and the analyzer sum the same endpoints in the same order, so
// the live view of average rates is potential_at bit for bit, for any set —
// and the session's covered mask is the one rpstream's potential.all lines
// describe: potential_at over every IXP.
TEST(StreamSession, AverageRateLiveViewIsThePotentialPerSet) {
  StreamWorld w;
  const std::vector<std::vector<const char*>> sets = {
      {}, {"X1"}, {"X2"}, {"X1", "X2"}, {"X1", "X2", "HOME"}};
  for (int g = 1; g <= 4; ++g) {
    const auto group = static_cast<offload::PeerGroup>(g);
    auto expect_potential = [&](const util::DynamicBitset& covered,
                                const offload::Potential& want) {
      const auto [in, out] = average_rate_offload(w, covered);
      EXPECT_EQ(in, want.inbound_bps);
      EXPECT_EQ(out, want.outbound_bps);
      EXPECT_EQ(covered.count(), want.covered_networks);
    };
    for (const auto& acronyms : sets) {
      std::vector<ixp::IxpId> ids;
      for (const char* acronym : acronyms)
        ids.push_back(w.eco.find(acronym)->id());
      expect_potential(w.analyzer->covered_mask(ids, group),
                       w.analyzer->potential_at(ids, group));
    }
    RateModelBinSource source(*w.rates, w.endpoint_networks());
    const StreamSession session(source, *w.analyzer, group);
    expect_potential(session.ingest().covered(),
                     w.analyzer->potential_at(w.analyzer->all_ixps(), group));
  }
}

struct Uninterrupted {
  std::vector<std::uint8_t> ingest;
  double live_in = 0.0;
  double live_out = 0.0;
};

/// Records a 200-bin log and replays it once without interruption.
Uninterrupted record_and_replay(const StreamWorld& w,
                                const std::filesystem::path& log_path) {
  RateModelBinSource recorder(*w.rates, w.endpoint_networks());
  EXPECT_EQ(write_bin_log(recorder, 200, log_path), 200u);
  BinLogSource source(log_path);
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll);
  session.run();
  EXPECT_EQ(session.ingest().next_bin(), 200u);
  return {ingest_bytes(session.ingest()),
          session.ingest().live_offload(flow::Direction::kInbound),
          session.ingest().live_offload(flow::Direction::kOutbound)};
}

/// Resumes `config`'s checkpoint (taken at bin 120) in a fresh session,
/// finishes the stream and checks it against the uninterrupted replay.
void expect_resume_reproduces(const StreamWorld& w,
                              const std::filesystem::path& log_path,
                              const StreamSessionConfig& config,
                              const Uninterrupted& reference) {
  BinLogSource source(log_path);
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                        config);
  ASSERT_TRUE(session.resume());
  EXPECT_EQ(session.ingest().next_bin(), 120u);
  // The live view is not checkpointed: empty until a bin arrives.
  EXPECT_FALSE(session.ingest().has_live_bin());
  session.run();
  EXPECT_EQ(session.ingest().next_bin(), 200u);
  EXPECT_EQ(ingest_bytes(session.ingest()), reference.ingest);

  ASSERT_TRUE(session.ingest().has_live_bin());
  EXPECT_EQ(session.ingest().next_bin() - 1, 199u);
  EXPECT_EQ(session.ingest().live_offload(flow::Direction::kInbound),
            reference.live_in);
  EXPECT_EQ(session.ingest().live_offload(flow::Direction::kOutbound),
            reference.live_out);
}

TEST(StreamSession, KillResumeReproducesUninterruptedBytes) {
  StreamWorld w;
  const auto log_path = temp_file("rp_stream_session_log.rpsnap");
  const auto ckpt_path = temp_file("rp_stream_session_ckpt.rpsnap");
  const Uninterrupted reference = record_and_replay(w, log_path);

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
    EXPECT_THROW(session.run(), fault::InjectedFault);
  }
  fault::disarm_all();
  ASSERT_TRUE(std::filesystem::exists(ckpt_path));

  // A checkpoint holds the ingest section only, under the id of its
  // aggregate-only layout.
  const auto sections =
      io::ContainerReader::from_file(ckpt_path).sections();
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].id, 3u);

  // A fresh process resumes from the checkpoint and finishes the stream.
  expect_resume_reproduces(w, log_path, config, reference);
  std::filesystem::remove(log_path);
  std::filesystem::remove(ckpt_path);
}

/// The ingest section (id 1) as checkpoints wrote it while the ingest kept
/// a P95Sketch per (network, direction): schema, covered mask, bin count,
/// bin cursor, the N inbound then N outbound per-network sketches, then the
/// transit in/out and offload in/out aggregates, every sketch fed the first
/// `bins` frames of the log.
std::vector<std::uint8_t> per_network_section(
    const StreamWorld& w, const std::filesystem::path& log_path,
    std::uint64_t bins) {
  const auto networks = w.endpoint_networks();
  const util::DynamicBitset covered = w.analyzer->covered_mask(
      w.analyzer->all_ixps(), offload::PeerGroup::kAll);
  std::vector<P95Sketch> in(networks.size());
  std::vector<P95Sketch> out(networks.size());
  P95Sketch aggregates[4];  // transit in, transit out, offload in, out.
  BinLogSource source(log_path);
  BinFrame frame;
  for (std::uint64_t bin = 0; bin < bins; ++bin) {
    EXPECT_TRUE(source.next(frame));
    double sums[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < networks.size(); ++i) {
      in[i].add(frame.in_bps[i]);
      out[i].add(frame.out_bps[i]);
      sums[0] += frame.in_bps[i];
      sums[1] += frame.out_bps[i];
    }
    covered.for_each([&frame, &sums](std::size_t i) {
      sums[2] += frame.in_bps[i];
      sums[3] += frame.out_bps[i];
    });
    for (int k = 0; k < 4; ++k) aggregates[k].add(sums[k]);
  }
  io::ByteWriter writer;
  writer.varint(networks.size());
  for (net::Asn asn : networks) writer.varint(asn.value());
  writer.varint(covered.size());
  for (std::uint64_t word : covered.words()) writer.u64_fixed(word);
  writer.varint(bins);
  writer.varint(bins);
  for (const P95Sketch& sketch : in) sketch.serialize(writer);
  for (const P95Sketch& sketch : out) sketch.serialize(writer);
  for (const P95Sketch& sketch : aggregates) sketch.serialize(writer);
  return writer.take();
}

/// io::fnv1a64 of per_network_section(w, log, 120): the section that
/// ingest's serialize() wrote at bin 120 of this log before the per-network
/// sketches were removed, so the image above is that layout byte for byte.
constexpr std::uint64_t kPerNetworkSectionDigest = 0xb002bebc97f63147ull;

/// Writes a bin-120 checkpoint in the per-network layout, optionally with
/// the retired reached-IXP-set section 2 after it.
void write_per_network_checkpoint(const StreamWorld& w,
                                  const std::filesystem::path& log_path,
                                  const std::filesystem::path& ckpt_path,
                                  bool with_reached_set) {
  std::vector<std::uint8_t> ingest = per_network_section(w, log_path, 120);
  EXPECT_EQ(io::fnv1a64(ingest), kPerNetworkSectionDigest);
  io::ContainerWriter old;
  old.add_section(1, std::move(ingest));
  if (with_reached_set) {
    io::ByteWriter reached;
    const auto all = w.analyzer->all_ixps();
    reached.varint(all.size());
    for (ixp::IxpId id : all) reached.varint(id);
    old.add_section(2, reached.take());
  }
  old.write_file_atomic(ckpt_path);
}

// Checkpoints written while the ingest kept a sketch per (network,
// direction) hold that layout as section 1, and those written while the
// session kept a reached IXP set carry it as section 2 after it. Both still
// resume, to the same bytes.
TEST(StreamSession, ResumesACheckpointWithTheRetiredReachedSetSection) {
  StreamWorld w;
  const auto log_path = temp_file("rp_stream_session_old_log.rpsnap");
  const auto ckpt_path = temp_file("rp_stream_session_old_ckpt.rpsnap");
  const Uninterrupted reference = record_and_replay(w, log_path);
  StreamSessionConfig config;
  config.checkpoint_path = ckpt_path;
  for (const bool with_reached_set : {false, true}) {
    SCOPED_TRACE(with_reached_set ? "sections 1 and 2" : "section 1 only");
    write_per_network_checkpoint(w, log_path, ckpt_path, with_reached_set);
    ASSERT_EQ(io::ContainerReader::from_file(ckpt_path).sections().size(),
              with_reached_set ? 2u : 1u);
    expect_resume_reproduces(w, log_path, config, reference);
  }
  std::filesystem::remove(log_path);
  std::filesystem::remove(ckpt_path);
}

// An ingest section that claims 2^40 networks is rejected as corrupt, in
// either layout, before anything is sized to it.
TEST(StreamSession, ResumeRejectsAHugeNetworkCount) {
  StreamWorld w;
  const auto ckpt_path = temp_file("rp_stream_session_huge.rpsnap");
  StreamSessionConfig config;
  config.checkpoint_path = ckpt_path;
  for (const std::uint32_t section : {1u, 3u}) {
    io::ByteWriter claim;
    claim.varint(std::uint64_t{1} << 40);
    for (int i = 0; i < 8; ++i) claim.varint(64500 + i);
    io::ContainerWriter checkpoint;
    checkpoint.add_section(section, claim.take());
    checkpoint.write_file_atomic(ckpt_path);
    RateModelBinSource source(*w.rates, w.endpoint_networks());
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                          config);
    EXPECT_THROW(session.resume(), io::SnapshotError) << "section " << section;
  }
  std::filesystem::remove(ckpt_path);
}

// A checkpoint carries the covered mask of the peer group it was written
// under; resuming it under another group would mix that group's offload
// percentiles with this one's, so it is refused.
TEST(StreamSession, ResumeRejectsAnotherPeerGroupsCheckpoint) {
  StreamWorld w;
  const auto ckpt_path = temp_file("rp_stream_session_group.rpsnap");
  StreamSessionConfig config;
  config.checkpoint_path = ckpt_path;
  {
    RateModelBinSource source(*w.rates, w.endpoint_networks());
    StreamSession session(source, *w.analyzer, offload::PeerGroup::kOpen,
                          config);
    session.run(10);
    session.checkpoint();
  }
  ASSERT_NE(w.analyzer->covered_mask(w.analyzer->all_ixps(),
                                     offload::PeerGroup::kOpen),
            w.analyzer->covered_mask(w.analyzer->all_ixps(),
                                     offload::PeerGroup::kAll));
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  StreamSession session(source, *w.analyzer, offload::PeerGroup::kAll,
                        config);
  EXPECT_THROW(session.resume(), io::SnapshotError);
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
