// rp::evolve replay: run a timeline end-to-end and persist one record (and
// optionally one .rpsnap snapshot) per epoch.
//
// A replay directory is an io::RunLedger (io/ledger.hpp draws its layout)
// with tool "rpevolve" and unit "epoch": manifest.txt holds the canonical
// timeline, epochs/epoch-<k>.rec one completion record per finished epoch,
// and results.csv / results.json the rows in epoch order. Beside each record
// sits epochs/epoch-<k>.rpsnap, the epoch world as a snapshot: `rpworld
// info` / `rpworld diff` read these directly, so two epochs (or an epoch and
// its base) diff like any two worlds.
//
// Resume and determinism: a record is written atomically the moment its
// epoch finishes, and replay_timeline() skips any epoch whose record already
// carries the current timeline digest — so a replay killed mid-timeline
// (including via the RP_FAULT site "evolve.apply") resumes with only the
// missing epochs, and the engine's deterministic event RNG makes the resumed
// records and snapshots byte-identical to an uninterrupted run.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "core/viability_study.hpp"
#include "evolve/engine.hpp"
#include "evolve/timeline.hpp"
#include "io/ledger.hpp"

namespace rp::evolve {

/// Results-table schema version (bumped when columns change meaning).
inline constexpr int kEvolveSchemaVersion = 1;

/// The per-epoch row: membership composition plus the §4 offload and §5
/// viability outcome for the epoch's world, prices, and traffic scale.
struct EpochResult {
  std::size_t index = 0;
  EpochComposition composition;
  core::WorldOutcome outcome;
};

/// A replay directory: the io::RunLedger layout under the rpevolve names
/// (records are epochs/epoch-<k>.rec), plus the per-epoch snapshots beside
/// the records.
struct EvolvePaths : io::RunLedger {
  explicit EvolvePaths(std::filesystem::path dir);
  std::filesystem::path snapshot(std::size_t k) const;
};

/// Writes <dir>/manifest.txt atomically (creating <dir>).
void write_manifest(const Timeline& timeline,
                    const std::filesystem::path& dir);

/// Reads the manifest back into a Timeline. Throws std::runtime_error when
/// it is missing/malformed or its digest does not match its own timeline
/// block (a hand-edited manifest must not silently redefine a replay).
Timeline read_manifest(const std::filesystem::path& dir);

struct ReplayOptions {
  /// Scenario snapshot cache for the base build; empty uses
  /// io::default_cache_dir().
  std::filesystem::path cache_dir;
  /// Write per-epoch .rpsnap snapshots (rpworld-diffable). On by default;
  /// benches that only want the rows switch it off.
  bool snapshots = true;
  /// Greedy-curve length per epoch (the all-IXP peer group's curve). Like
  /// `days`, it is not part of the timeline digest, so a resume must pass
  /// the value the replay started with; rpevolve always uses the default.
  std::size_t steps = 8;
  /// Rate-model span in days.
  double days = 7.0;
};

struct ReplayOutcome {
  std::size_t total = 0;     ///< Epochs in the timeline.
  std::size_t executed = 0;  ///< Epochs evaluated and recorded this call.
  std::size_t skipped = 0;   ///< Epochs with a valid prior record.
};

/// Evaluates epoch k on an engine: membership composition from the epoch
/// state, then an OffloadStudy over view_at(k) (traffic scaled) and
/// core::evaluate_world at the epoch's prices, b fitted from the epoch's own
/// curve. Pure given (timeline, base config, k, options).
EpochResult evaluate_epoch(EpochTimeline& engine, std::size_t k,
                           const ReplayOptions& options);

/// Replays every epoch lacking a valid record, in timeline order, writing a
/// record (and snapshot) per epoch as it completes. Propagates the first
/// failure (including an injected "evolve.apply" fault); records written
/// before it survive, so a rerun resumes. Counts land in rp.evolve.* when
/// metrics are enabled.
ReplayOutcome replay_timeline(const Timeline& timeline,
                              const std::filesystem::path& dir,
                              const ReplayOptions& options = {});

/// Collates the records into results.csv / results.json (atomically).
/// Throws std::runtime_error naming the first missing epoch when the replay
/// is incomplete. Returns the number of rows written.
std::size_t summarize_replay(const Timeline& timeline,
                             const std::filesystem::path& dir);

}  // namespace rp::evolve
