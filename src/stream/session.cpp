#include "stream/session.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::stream {

namespace {

/// Checkpoint container section: the ingest's serialize() layout. Older
/// checkpoints hold the ingest with its retired per-network sketches as
/// section 1 instead, and may carry a reached-IXP-set section (id 2), which
/// resume() ignores.
constexpr std::uint32_t kSectionIngest = 3;
constexpr std::uint32_t kSectionRetiredIngest = 1;

BinSchema endpoint_schema(const offload::OffloadAnalyzer& analyzer) {
  BinSchema schema;
  for (const auto& endpoint : analyzer.transit_endpoints())
    schema.networks.push_back(endpoint.asn);
  return schema;
}

}  // namespace

StreamSession::StreamSession(BinSource& source,
                             const offload::OffloadAnalyzer& analyzer,
                             offload::PeerGroup group,
                             StreamSessionConfig config)
    : source_(&source),
      config_(std::move(config)),
      ingest_(endpoint_schema(analyzer),
              analyzer.covered_mask(analyzer.all_ixps(), group)) {
  if (!(source.schema() == ingest_.schema()))
    throw std::invalid_argument(
        "StreamSession: source schema != analyzer transit endpoints");
  if (config_.checkpoint_every > 0 && config_.checkpoint_path.empty())
    throw std::invalid_argument(
        "StreamSession: checkpoint cadence without a checkpoint path");
}

std::uint64_t StreamSession::run(std::uint64_t max_bins) {
  obs::Span span("stream.session.run");
  std::uint64_t consumed = 0;
  BinFrame frame;
  while (consumed < max_bins && source_->next(frame)) {
    ingest_.consume(frame);
    ++consumed;
    if (config_.checkpoint_every > 0 &&
        ingest_.next_bin() % config_.checkpoint_every == 0)
      checkpoint();
  }
  return consumed;
}

void StreamSession::checkpoint() const {
  if (config_.checkpoint_path.empty())
    throw std::logic_error("StreamSession::checkpoint: no path configured");
  obs::Span span("stream.session.checkpoint");
  io::ContainerWriter container;
  io::ByteWriter ingest_bytes;
  ingest_.serialize(ingest_bytes);
  container.add_section(kSectionIngest, ingest_bytes.take());
  container.write_file_atomic(config_.checkpoint_path);
  if (obs::metrics_enabled()) {
    static obs::Counter checkpoints("rp.stream.checkpoints");
    checkpoints.add();
  }
}

bool StreamSession::resume() {
  if (config_.checkpoint_path.empty() ||
      !std::filesystem::exists(config_.checkpoint_path))
    return false;
  obs::Span span("stream.session.resume");
  io::ContainerReader container =
      io::ContainerReader::from_file(config_.checkpoint_path);
  const bool retired = !container.has(kSectionIngest);
  io::ByteReader ingest_bytes(
      container.section(retired ? kSectionRetiredIngest : kSectionIngest),
      "stream checkpoint ingest");
  StreamIngest restored = StreamIngest::deserialize(ingest_bytes, retired);
  ingest_bytes.expect_end();
  if (!(restored.schema() == source_->schema()))
    throw io::SnapshotError(
        "stream checkpoint: schema does not match the source");
  if (!(restored.covered() == ingest_.covered()))
    throw io::SnapshotError(
        "stream checkpoint: covered mask does not match this session's (a "
        "checkpoint from another peer group?)");

  source_->seek(restored.next_bin());
  ingest_ = std::move(restored);
  if (obs::metrics_enabled()) {
    static obs::Counter resumes("rp.stream.resumes");
    resumes.add();
  }
  return true;
}

}  // namespace rp::stream
