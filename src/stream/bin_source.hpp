// Bin sources: the arrival-order feed of the streaming ingest.
//
// The batch path of §4 materializes a whole month of 5-minute bins before
// any analysis runs. A BinSource instead replays bins one at a time, in
// arrival order, from either of two backends:
//
//   RateModelBinSource   computes each bin on demand from the deterministic
//                        flow::RateModel — the "live collector" stand-in.
//                        Per-network rates are identical (bit for bit) to
//                        what RateModel::aggregate_series folds into the
//                        batch series, so a stream consumer can match the
//                        batch outputs exactly.
//   BinLogSource         replays an RPSNAP-serialized bin log written by
//                        write_bin_log — the "recorded NetFlow" stand-in.
//                        Frames round-trip through the exact f64 codec, so
//                        a replay is byte-identical to the live feed it
//                        recorded. Each frame read passes the `stream.bin`
//                        fault site, which CI uses to kill an ingest
//                        mid-stream and prove checkpoint resume.
//
// A frame is columnar: schema position i of BinSchema::networks owns
// in_bps[i] / out_bps[i]. Keeping one fixed schema per stream (rather than
// per-frame maps) makes per-bin aggregation a single ordered scan — the
// property the byte-identity contract of DESIGN.md §16 rests on.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <vector>

#include "flow/rate_model.hpp"
#include "io/container.hpp"

namespace rp::stream {

/// The fixed network universe of one stream, in aggregation order.
struct BinSchema {
  std::vector<net::Asn> networks;

  std::size_t size() const { return networks.size(); }
  bool operator==(const BinSchema&) const = default;
};

/// One 5-minute bin: per-network rates in schema order.
struct BinFrame {
  std::uint64_t bin = 0;
  std::vector<double> in_bps;
  std::vector<double> out_bps;
};

class BinSource {
 public:
  virtual ~BinSource() = default;

  virtual const BinSchema& schema() const = 0;
  /// Total bins this source will deliver.
  virtual std::uint64_t bin_count() const = 0;
  /// Fills `frame` with the next bin; returns false at end of stream.
  virtual bool next(BinFrame& frame) = 0;
  /// Repositions so the next frame delivered is `bin` (resume support).
  /// Throws std::out_of_range past bin_count().
  virtual void seek(std::uint64_t bin) = 0;
};

/// Streams bins straight out of the deterministic rate model. Each schema
/// network's rate-model term is resolved once, at construction. Frames for
/// distinct networks are independent, so each frame fans the per-network
/// rate evaluations across the global ThreadPool into fixed slots —
/// byte-identical columns at any RP_THREADS.
class RateModelBinSource : public BinSource {
 public:
  RateModelBinSource(const flow::RateModel& model,
                     std::vector<net::Asn> networks);

  const BinSchema& schema() const override { return schema_; }
  std::uint64_t bin_count() const override;
  bool next(BinFrame& frame) override;
  void seek(std::uint64_t bin) override;

 private:
  const flow::RateModel* model_;
  BinSchema schema_;
  /// terms_[i] is model_->term(schema_.networks[i]).
  std::vector<flow::RateModel::Term> terms_;
  std::uint64_t next_bin_ = 0;
};

/// Writes `bins` frames of `source` (from its current position) to an RPSNAP
/// bin-log container at `path` (atomic rename, like every snapshot write).
/// Returns the number of frames written.
std::uint64_t write_bin_log(BinSource& source, std::uint64_t bins,
                            const std::filesystem::path& path);

/// Replays a bin log written by write_bin_log. Construction validates the
/// container (magic, per-section checksums) and decodes the schema; frames
/// decode lazily per chunk. Every next() passes the stream.bin fault site.
class BinLogSource : public BinSource {
 public:
  explicit BinLogSource(const std::filesystem::path& path);

  const BinSchema& schema() const override { return schema_; }
  std::uint64_t bin_count() const override { return frame_count_; }
  bool next(BinFrame& frame) override;
  void seek(std::uint64_t bin) override;

 private:
  void load_chunk(std::uint64_t chunk);

  io::ContainerReader reader_;
  BinSchema schema_;
  std::uint64_t frame_count_ = 0;
  std::uint64_t chunk_size_ = 0;
  std::uint64_t next_bin_ = 0;
  std::uint64_t first_bin_ = 0;

  /// Decoded frames of the chunk holding next_bin_ (invalid when empty).
  std::uint64_t loaded_chunk_ = ~std::uint64_t{0};
  std::vector<BinFrame> chunk_frames_;
};

}  // namespace rp::stream
