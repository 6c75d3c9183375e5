// StreamIngest: online 95th-percentile state over an arriving bin stream.
//
// The batch path (core::OffloadStudy::time_series + util::p95_billing_rate)
// materializes the whole month before a single percentile is known. The
// ingest instead folds each BinFrame as it arrives into four aggregate
// sketches: transit in/out (all schema networks) and offload in/out (the
// covered subset), the Fig. 5b pair.
//
// Byte-identity contract (DESIGN.md §16): per-bin aggregate sums accumulate
// in schema order — the same network order RateModel::aggregate_series folds
// with — and the offload aggregate sums the covered subset in ascending
// schema index, matching the index-ordered covered_endpoints() list the
// batch path aggregates. Networks the model rates at zero add +0.0, which
// is exact, so after N bins transit_p95()/offload_p95() equal
// util::p95_billing_rate over the batch series bit for bit (while the
// sketches are in their exact regime).
//
// The complete percentile state round-trips through the snapshot byte
// codec, so a checkpointed ingest resumes with bit-identical percentiles.
// The live view — the latest bin's offload pair — is not serialized: a
// resumed ingest has none until its next bin arrives.
#pragma once

#include <cstdint>

#include "flow/traffic_matrix.hpp"
#include "io/container.hpp"
#include "stream/bin_source.hpp"
#include "stream/p95.hpp"
#include "util/bitset.hpp"

namespace rp::stream {

class StreamIngest {
 public:
  /// `covered` flags the schema positions whose networks are offloadable
  /// (endpoint-space coverage at the reached IXPs); its size must equal the
  /// schema's.
  StreamIngest(BinSchema schema, util::DynamicBitset covered);

  /// Folds one bin. Frames must arrive in order: frame.bin must equal
  /// next_bin() (the contract a resumed checkpoint relies on). Throws
  /// std::invalid_argument on a gap, rewind, or column-size mismatch.
  void consume(const BinFrame& frame);

  const BinSchema& schema() const { return schema_; }
  const util::DynamicBitset& covered() const { return covered_; }
  /// The bin index the next consume() must carry. Frames start at bin 0, so
  /// this is also the number of bins folded so far.
  std::uint64_t next_bin() const { return next_bin_; }

  /// Aggregate billing percentiles (throw std::logic_error before any bin).
  double transit_p95(flow::Direction dir) const;
  double offload_p95(flow::Direction dir) const;

  /// True once this object has folded a bin itself (a deserialized ingest
  /// starts without one).
  bool has_live_bin() const { return has_live_; }
  /// The offload sample of the last folded bin (bin next_bin() - 1): that
  /// bin's rates summed over the covered mask — "what is offloadable right
  /// now". Throws std::logic_error before has_live_bin().
  double live_offload(flow::Direction dir) const;

  /// Layout: schema, covered mask, next_bin(), then the transit in/out and
  /// offload in/out sketches.
  void serialize(io::ByteWriter& writer) const;
  /// Decodes serialize()'s layout. `retired_layout` reads the layout that
  /// checkpoint section 1 held instead: a bin count before the cursor and
  /// 2N per-network sketches before the aggregates. Each of those is
  /// decoded, so its bounds are checked, and dropped.
  static StreamIngest deserialize(io::ByteReader& reader,
                                  bool retired_layout = false);

 private:
  BinSchema schema_;
  util::DynamicBitset covered_;
  std::uint64_t next_bin_ = 0;

  P95Sketch transit_in_;
  P95Sketch transit_out_;
  P95Sketch offload_in_;
  P95Sketch offload_out_;

  /// The live view; not serialized.
  bool has_live_ = false;
  double live_in_ = 0.0;
  double live_out_ = 0.0;
};

}  // namespace rp::stream
