#include "stream/bin_source.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "fault/fault.hpp"
#include "stream_world.hpp"
#include "util/thread_pool.hpp"

namespace rp::stream {
namespace {

using testing::StreamWorld;

std::filesystem::path temp_log(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

TEST(RateModelBinSource, ColumnsMatchRateBpsBitForBit) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  ASSERT_EQ(source.bin_count(), w.rates->bin_count());
  BinFrame frame;
  for (std::uint64_t bin = 0; bin < 5; ++bin) {
    ASSERT_TRUE(source.next(frame));
    EXPECT_EQ(frame.bin, bin);
    ASSERT_EQ(frame.in_bps.size(), source.schema().size());
    for (std::size_t i = 0; i < source.schema().size(); ++i) {
      const net::Asn asn = source.schema().networks[i];
      EXPECT_EQ(frame.in_bps[i],
                w.rates->rate_bps(asn, flow::Direction::kInbound,
                                  static_cast<std::size_t>(bin)));
      EXPECT_EQ(frame.out_bps[i],
                w.rates->rate_bps(asn, flow::Direction::kOutbound,
                                  static_cast<std::size_t>(bin)));
    }
  }
}

TEST(RateModelBinSource, ColumnsInvariantAcrossThreadWidths) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  BinFrame narrow;
  BinFrame wide;
  util::ThreadPool::set_global_threads(1);
  ASSERT_TRUE(source.next(narrow));
  util::ThreadPool::set_global_threads(8);
  source.seek(0);
  ASSERT_TRUE(source.next(wide));
  util::ThreadPool::set_global_threads(0);  // Back to the default.
  EXPECT_EQ(narrow.in_bps, wide.in_bps);
  EXPECT_EQ(narrow.out_bps, wide.out_bps);
}

TEST(BinLog, RoundTripsFramesExactly) {
  StreamWorld w(2);  // 576 bins, enough for a partial trailing chunk.
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  const auto path = temp_log("rp_stream_roundtrip.rpsnap");
  // An odd bin count exercises a partial trailing chunk (chunks hold 256).
  const std::uint64_t bins = 300;
  ASSERT_EQ(write_bin_log(source, bins, path), bins);

  BinLogSource replay(path);
  EXPECT_EQ(replay.schema(), source.schema());
  EXPECT_EQ(replay.bin_count(), bins);
  source.seek(0);
  BinFrame expected;
  BinFrame got;
  for (std::uint64_t bin = 0; bin < bins; ++bin) {
    ASSERT_TRUE(source.next(expected));
    ASSERT_TRUE(replay.next(got));
    EXPECT_EQ(got.bin, expected.bin);
    EXPECT_EQ(got.in_bps, expected.in_bps);   // Exact f64 codec.
    EXPECT_EQ(got.out_bps, expected.out_bps);
  }
  EXPECT_FALSE(replay.next(got));
  std::filesystem::remove(path);
}

TEST(BinLog, SeekLandsOnAnyBinAcrossChunks) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  const auto path = temp_log("rp_stream_seek.rpsnap");
  ASSERT_EQ(write_bin_log(source, 280, path), 280u);

  BinLogSource replay(path);
  BinFrame frame;
  for (std::uint64_t bin : {279u, 0u, 255u, 256u, 128u}) {
    replay.seek(bin);
    ASSERT_TRUE(replay.next(frame)) << "bin=" << bin;
    EXPECT_EQ(frame.bin, bin);
  }
  EXPECT_THROW(replay.seek(281), std::out_of_range);
  std::filesystem::remove(path);
}

TEST(BinLog, MidStreamWriteStartsAtCurrentPosition) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  source.seek(40);
  const auto path = temp_log("rp_stream_offset.rpsnap");
  ASSERT_EQ(write_bin_log(source, 10, path), 10u);
  BinLogSource replay(path);
  BinFrame frame;
  ASSERT_TRUE(replay.next(frame));
  EXPECT_EQ(frame.bin, 40u);
  replay.seek(45);
  ASSERT_TRUE(replay.next(frame));
  EXPECT_EQ(frame.bin, 45u);
  std::filesystem::remove(path);
}

TEST(BinLog, StreamBinFaultSiteFiresOnNthFrame) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  const auto path = temp_log("rp_stream_fault.rpsnap");
  ASSERT_EQ(write_bin_log(source, 20, path), 20u);

  fault::arm(std::string(fault::kSiteStreamBin) + ":nth=3");
  BinLogSource replay(path);
  BinFrame frame;
  EXPECT_TRUE(replay.next(frame));
  EXPECT_TRUE(replay.next(frame));
  try {
    replay.next(frame);
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& fault) {
    EXPECT_EQ(fault.site(), fault::kSiteStreamBin);
  }
  fault::disarm_all();
  // Disarmed, the stream continues from where the fault interrupted it.
  EXPECT_TRUE(replay.next(frame));
  EXPECT_EQ(frame.bin, 2u);
  std::filesystem::remove(path);
}

/// Rewrites the header of the bin log at `path` to claim `frames` frames,
/// keeping every chunk as written.
void rewrite_frame_count(const std::filesystem::path& path,
                         std::uint64_t frames) {
  const auto log = io::ContainerReader::from_file(path);
  io::ByteReader header(log.section(1), "bin-log header");
  io::ByteWriter claimed;
  const std::uint64_t networks = header.varint();
  claimed.varint(networks);
  for (std::uint64_t i = 0; i < networks; ++i) claimed.varint(header.varint());
  header.varint();
  claimed.varint(frames);
  claimed.varint(header.varint());  // Chunk size.
  claimed.varint(header.varint());  // First bin.
  io::ContainerWriter rewritten;
  for (const io::SectionEntry& entry : log.sections()) {
    const auto payload = log.section(entry.id);
    rewritten.add_section(entry.id, entry.id == 1
                                        ? claimed.take()
                                        : std::vector<std::uint8_t>(
                                              payload.begin(), payload.end()));
  }
  rewritten.write_file_atomic(path);
}

// A header that promises more frames than the last chunk holds must not let
// next() index past the decoded chunk.
TEST(BinLog, RejectsAChunkShorterThanTheHeaderClaims) {
  StreamWorld w(2);  // 576 bins: two full chunks and one of 64 frames.
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  const auto path = temp_log("rp_stream_short_chunk.rpsnap");
  ASSERT_EQ(write_bin_log(source, 576, path), 576u);
  rewrite_frame_count(path, 676);

  BinLogSource replay(path);
  EXPECT_EQ(replay.bin_count(), 676u);
  BinFrame frame;
  for (std::uint64_t bin = 0; bin < 512; ++bin) ASSERT_TRUE(replay.next(frame));
  EXPECT_THROW(replay.next(frame), io::SnapshotError);
  std::filesystem::remove(path);
}

/// Delivers `inner`'s frames, but numbers the one for bin 3 as bin 9.
class MisnumberedSource : public BinSource {
 public:
  explicit MisnumberedSource(BinSource& inner) : inner_(&inner) {}
  const BinSchema& schema() const override { return inner_->schema(); }
  std::uint64_t bin_count() const override { return inner_->bin_count(); }
  bool next(BinFrame& frame) override {
    if (!inner_->next(frame)) return false;
    if (frame.bin == 3) frame.bin = 9;
    return true;
  }
  void seek(std::uint64_t bin) override { inner_->seek(bin); }

 private:
  BinSource* inner_;
};

// Slot k of a log holds bin first_bin + k; a frame carrying any other bin
// is corrupt, not a frame to deliver.
TEST(BinLog, RejectsAFrameWhoseBinIsNotItsSlot) {
  StreamWorld w;
  RateModelBinSource rates(*w.rates, w.endpoint_networks());
  MisnumberedSource source(rates);
  const auto path = temp_log("rp_stream_misnumbered.rpsnap");
  ASSERT_EQ(write_bin_log(source, 8, path), 8u);
  BinLogSource replay(path);
  BinFrame frame;
  EXPECT_THROW(replay.next(frame), io::SnapshotError);
  std::filesystem::remove(path);
}

// A header claiming 2^40 networks is rejected before the schema is sized
// to it.
TEST(BinLog, RejectsAHeaderClaimingMoreNetworksThanItHolds) {
  const auto path = temp_log("rp_stream_huge_header.rpsnap");
  io::ByteWriter header;
  header.varint(std::uint64_t{1} << 40);
  for (int i = 0; i < 8; ++i) header.varint(64500 + i);
  io::ContainerWriter log;
  log.add_section(1, header.take());
  log.write_file_atomic(path);
  EXPECT_THROW(BinLogSource{path}, io::SnapshotError);
  std::filesystem::remove(path);
}

TEST(BinLog, RejectsCorruptContainer) {
  StreamWorld w;
  RateModelBinSource source(*w.rates, w.endpoint_networks());
  const auto path = temp_log("rp_stream_corrupt.rpsnap");
  ASSERT_EQ(write_bin_log(source, 8, path), 8u);
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  EXPECT_THROW(BinLogSource{path}, io::SnapshotError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rp::stream
