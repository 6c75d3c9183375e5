#include "stream/bin_source.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::stream {

namespace {

/// Bin-log container sections: one header, then frame chunks in bin order.
constexpr std::uint32_t kSectionHeader = 1;
constexpr std::uint32_t kSectionChunkBase = 100;
/// Frames per chunk: big enough to amortize section overhead, small enough
/// that a seek decodes at most a few hundred frames it does not need.
constexpr std::uint64_t kChunkFrames = 256;

fault::Site& bin_site() {
  static fault::Site site(fault::kSiteStreamBin);
  return site;
}

obs::Counter& frames_read() {
  static obs::Counter c("rp.stream.log.frames_read");
  return c;
}

}  // namespace

RateModelBinSource::RateModelBinSource(const flow::RateModel& model,
                                       std::vector<net::Asn> networks)
    : model_(&model), schema_{std::move(networks)} {
  terms_.reserve(schema_.size());
  for (net::Asn asn : schema_.networks) terms_.push_back(model_->term(asn));
}

std::uint64_t RateModelBinSource::bin_count() const {
  return model_->bin_count();
}

bool RateModelBinSource::next(BinFrame& frame) {
  if (next_bin_ >= bin_count()) return false;
  const std::uint64_t bin = next_bin_++;
  frame.bin = bin;
  frame.in_bps.resize(schema_.size());
  frame.out_bps.resize(schema_.size());
  const auto b = static_cast<std::size_t>(bin);
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    frame.in_bps[i] = model_->rate_bps(terms_[i], flow::Direction::kInbound, b);
    frame.out_bps[i] =
        model_->rate_bps(terms_[i], flow::Direction::kOutbound, b);
  }
  return true;
}

void RateModelBinSource::seek(std::uint64_t bin) {
  if (bin > bin_count())
    throw std::out_of_range("RateModelBinSource::seek past end");
  next_bin_ = bin;
}

std::uint64_t write_bin_log(BinSource& source, std::uint64_t bins,
                            const std::filesystem::path& path) {
  obs::Span span("stream.log.write");
  io::ContainerWriter container;

  std::vector<BinFrame> pending;
  std::vector<std::vector<std::uint8_t>> chunks;
  std::uint64_t written = 0;
  std::uint64_t first_bin = 0;
  bool first = true;

  auto flush_chunk = [&] {
    if (pending.empty()) return;
    io::ByteWriter chunk;
    chunk.varint(pending.size());
    for (const BinFrame& frame : pending) {
      chunk.varint(frame.bin);
      for (double v : frame.in_bps) chunk.f64(v);
      for (double v : frame.out_bps) chunk.f64(v);
    }
    chunks.push_back(chunk.take());
    pending.clear();
  };

  BinFrame frame;
  while (written < bins && source.next(frame)) {
    if (first) {
      first_bin = frame.bin;
      first = false;
    }
    pending.push_back(frame);
    ++written;
    if (pending.size() >= kChunkFrames) flush_chunk();
  }
  flush_chunk();

  io::ByteWriter header;
  const BinSchema& schema = source.schema();
  header.varint(schema.size());
  for (net::Asn asn : schema.networks) header.varint(asn.value());
  header.varint(written);
  header.varint(kChunkFrames);
  header.varint(first_bin);
  container.add_section(kSectionHeader, header.take());
  for (std::size_t i = 0; i < chunks.size(); ++i)
    container.add_section(kSectionChunkBase + static_cast<std::uint32_t>(i),
                          std::move(chunks[i]));
  container.write_file_atomic(path);

  if (obs::metrics_enabled()) {
    static obs::Counter logs("rp.stream.log.writes");
    static obs::Counter frames("rp.stream.log.frames_written");
    logs.add();
    frames.add(written);
  }
  return written;
}

BinLogSource::BinLogSource(const std::filesystem::path& path)
    : reader_(io::ContainerReader::from_file(path)) {
  io::ByteReader header(reader_.section(kSectionHeader), "bin-log header");
  const std::size_t networks = header.count();
  schema_.networks.reserve(networks);
  for (std::size_t i = 0; i < networks; ++i)
    schema_.networks.push_back(net::Asn{
        static_cast<std::uint32_t>(header.varint())});
  frame_count_ = header.varint();
  chunk_size_ = header.varint();
  first_bin_ = header.varint();
  header.expect_end();
  if (chunk_size_ == 0)
    throw io::SnapshotError("bin-log header: zero chunk size");
}

void BinLogSource::load_chunk(std::uint64_t chunk) {
  io::ByteReader body(
      reader_.section(kSectionChunkBase + static_cast<std::uint32_t>(chunk)),
      "bin-log chunk");
  // next() indexes this chunk by slot, so it must hold every slot the header
  // promises it, each carrying its own bin. A chunk that fails part-way is
  // not left half-loaded.
  loaded_chunk_ = ~std::uint64_t{0};
  const std::uint64_t first_slot = chunk * chunk_size_;
  // A frame is its bin varint and 2N doubles.
  const std::size_t frames = body.count(1 + 16 * schema_.size());
  if (frames != std::min(chunk_size_, frame_count_ - first_slot))
    throw io::SnapshotError(
        "bin-log chunk: frame count disagrees with the header");
  chunk_frames_.resize(frames);
  for (std::size_t slot = 0; slot < frames; ++slot) {
    BinFrame& frame = chunk_frames_[slot];
    frame.bin = body.varint();
    if (frame.bin != first_bin_ + first_slot + slot)
      throw io::SnapshotError("bin-log chunk: frame bin out of sequence");
    frame.in_bps.resize(schema_.size());
    frame.out_bps.resize(schema_.size());
    for (double& v : frame.in_bps) v = body.f64();
    for (double& v : frame.out_bps) v = body.f64();
  }
  body.expect_end();
  loaded_chunk_ = chunk;
}

bool BinLogSource::next(BinFrame& frame) {
  if (next_bin_ >= frame_count_) return false;
  // The kill-a-stream-mid-ingest hook: CI arms stream.bin:nth=K to abort a
  // replay at a chosen frame and then proves checkpoint resume produces
  // byte-identical state.
  bin_site().maybe_throw();
  const std::uint64_t chunk = next_bin_ / chunk_size_;
  if (chunk != loaded_chunk_) load_chunk(chunk);
  frame = chunk_frames_[next_bin_ % chunk_size_];
  ++next_bin_;
  frames_read().add();
  return true;
}

void BinLogSource::seek(std::uint64_t bin) {
  // next_bin_ is a slot index into the log; a log written mid-stream
  // (first_bin_ > 0) keeps its frames' original bin numbers, so seeking to
  // an absolute bin lands on slot bin - first_bin_.
  if (bin < first_bin_ || bin - first_bin_ > frame_count_)
    throw std::out_of_range("BinLogSource::seek past end");
  next_bin_ = bin - first_bin_;
}

}  // namespace rp::stream
