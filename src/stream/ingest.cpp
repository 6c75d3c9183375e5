#include "stream/ingest.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace rp::stream {

StreamIngest::StreamIngest(BinSchema schema, util::DynamicBitset covered)
    : schema_(std::move(schema)), covered_(std::move(covered)) {
  if (covered_.size() != schema_.size())
    throw std::invalid_argument(
        "StreamIngest: covered mask size does not match schema");
}

void StreamIngest::consume(const BinFrame& frame) {
  if (frame.bin != next_bin_)
    throw std::invalid_argument("StreamIngest: out-of-order bin");
  if (frame.in_bps.size() != schema_.size() ||
      frame.out_bps.size() != schema_.size())
    throw std::invalid_argument("StreamIngest: frame width != schema");

  // Aggregates accumulate serially in schema order — the exact summation
  // order of RateModel::aggregate_series — so the fed samples (and hence the
  // percentiles) are bit-identical to the batch series.
  double transit_in = 0.0;
  double transit_out = 0.0;
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    transit_in += frame.in_bps[i];
    transit_out += frame.out_bps[i];
  }
  double offload_in = 0.0;
  double offload_out = 0.0;
  covered_.for_each([&frame, &offload_in, &offload_out](std::size_t i) {
    offload_in += frame.in_bps[i];
    offload_out += frame.out_bps[i];
  });
  transit_in_.add(transit_in);
  transit_out_.add(transit_out);
  offload_in_.add(offload_in);
  offload_out_.add(offload_out);
  live_in_ = offload_in;
  live_out_ = offload_out;
  has_live_ = true;

  next_bin_ = frame.bin + 1;

  if (obs::metrics_enabled()) {
    static obs::Counter bins("rp.stream.bins_ingested");
    bins.add();
  }
}

double StreamIngest::transit_p95(flow::Direction dir) const {
  return (dir == flow::Direction::kInbound ? transit_in_ : transit_out_).p95();
}

double StreamIngest::offload_p95(flow::Direction dir) const {
  return (dir == flow::Direction::kInbound ? offload_in_ : offload_out_).p95();
}

double StreamIngest::live_offload(flow::Direction dir) const {
  if (!has_live_)
    throw std::logic_error("StreamIngest::live_offload: no bin folded");
  return dir == flow::Direction::kInbound ? live_in_ : live_out_;
}

void StreamIngest::serialize(io::ByteWriter& writer) const {
  writer.varint(schema_.size());
  for (net::Asn asn : schema_.networks) writer.varint(asn.value());
  writer.varint(covered_.size());
  for (std::uint64_t word : covered_.words()) writer.u64_fixed(word);
  writer.varint(next_bin_);
  transit_in_.serialize(writer);
  transit_out_.serialize(writer);
  offload_in_.serialize(writer);
  offload_out_.serialize(writer);
}

StreamIngest StreamIngest::deserialize(io::ByteReader& reader,
                                       bool retired_layout) {
  BinSchema schema;
  const std::size_t networks = reader.count();
  schema.networks.reserve(networks);
  for (std::size_t i = 0; i < networks; ++i)
    schema.networks.push_back(
        net::Asn{static_cast<std::uint32_t>(reader.varint())});
  // The schema count bounds the mask's words as well.
  const std::uint64_t covered_bits = reader.varint();
  if (covered_bits != networks)
    throw io::SnapshotError("StreamIngest: covered mask size != schema");
  std::vector<std::uint64_t> words((networks + 63) / 64);
  for (std::uint64_t& word : words) word = reader.u64_fixed();
  util::DynamicBitset covered;
  try {
    covered = util::DynamicBitset::from_words(networks, std::move(words));
  } catch (const std::invalid_argument& e) {
    throw io::SnapshotError(std::string("StreamIngest: ") + e.what());
  }

  StreamIngest ingest(std::move(schema), std::move(covered));
  if (retired_layout) {
    const std::uint64_t bins = reader.varint();
    ingest.next_bin_ = reader.varint();
    if (bins != ingest.next_bin_)
      throw io::SnapshotError("StreamIngest: bin count != bin cursor");
    for (std::size_t i = 0; i < 2 * networks; ++i)
      P95Sketch::deserialize(reader);
  } else {
    ingest.next_bin_ = reader.varint();
  }
  ingest.transit_in_ = P95Sketch::deserialize(reader);
  ingest.transit_out_ = P95Sketch::deserialize(reader);
  ingest.offload_in_ = P95Sketch::deserialize(reader);
  ingest.offload_out_ = P95Sketch::deserialize(reader);
  return ingest;
}

}  // namespace rp::stream
