// StreamSession: one end-to-end streaming run — source → ingest — with
// crash-consistent checkpoints.
//
// The session pulls bins from a BinSource in arrival order, folds each into
// the StreamIngest percentile state (whose last offload sample is the live
// view), and every `checkpoint_every` bins writes the complete ingest state
// to an RPSNAP container with the usual atomic-rename discipline. A replay killed mid-ingest (the
// stream.bin fault site) therefore leaves a valid checkpoint on disk;
// resume() restores it, seeks the source, and the continued run's
// percentiles and greedy curve are byte-identical to an uninterrupted one —
// the property the ci.sh stream smoke asserts.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>

#include "offload/analyzer.hpp"
#include "stream/bin_source.hpp"
#include "stream/ingest.hpp"

namespace rp::stream {

struct StreamSessionConfig {
  /// Write a checkpoint after every N consumed bins (0 disables).
  std::uint64_t checkpoint_every = 0;
  /// Checkpoint file (required when checkpoint_every > 0).
  std::filesystem::path checkpoint_path;
};

class StreamSession {
 public:
  /// The source's schema must match `analyzer.transit_endpoints()` order —
  /// the order every byte-identity claim is anchored to. Throws
  /// std::invalid_argument otherwise. The ingest's covered mask is the
  /// union of `group` coverage over all reachable IXPs (the maximal-offload
  /// series of Fig. 5b).
  StreamSession(BinSource& source, const offload::OffloadAnalyzer& analyzer,
                offload::PeerGroup group, StreamSessionConfig config = {});

  /// Consumes up to `max_bins` further bins (until the source runs dry),
  /// checkpointing on the configured cadence. Returns the number of bins
  /// consumed by this call. An InjectedFault (or any source error)
  /// propagates after the state has already been checkpointed at the last
  /// boundary.
  std::uint64_t run(
      std::uint64_t max_bins = std::numeric_limits<std::uint64_t>::max());

  /// Restores the configured checkpoint if present and valid, seeking the
  /// source to the first unconsumed bin. Returns true when a checkpoint was
  /// restored, false when none exists. Throws io::SnapshotError on a
  /// corrupt checkpoint, a schema that does not match the source, or a
  /// covered mask that is not this session's (another peer group's).
  bool resume();

  /// Writes a checkpoint now (requires a configured path).
  void checkpoint() const;

  const StreamIngest& ingest() const { return ingest_; }

 private:
  BinSource* source_;
  StreamSessionConfig config_;
  StreamIngest ingest_;
};

}  // namespace rp::stream
