// rp::sweep engine: expand a SweepSpec, execute the runs across the thread
// pool, and collect a stable, schema-versioned results table.
//
// A sweep directory is an io::RunLedger (io/ledger.hpp draws its layout)
// with tool "rpsweep" and unit "run": manifest.txt holds the canonical spec,
// runs/run-<i>.rec one completion record per finished run, and results.csv /
// results.json the rows in run-index order.
//
// Execution shards over *worlds*, not runs: runs that share every
// scenario-config field (differing only in econ.* axes) map to one world
// group, so the group builds its Scenario once — through
// core::Scenario::build_cached, so repeated sweeps hit the .rpsnap cache —
// runs its OffloadStudy and greedy curve once per epoch (a plain grid is
// epoch 0 of the world itself), and then evaluates each priced run from
// those shared artifacts through core::evaluate_world. Groups run in parallel on
// rp::util::ThreadPool::global(), so RP_THREADS bounds both the sweep's
// width and the number of worlds resident at once.
//
// Resume and determinism: a completion record is written atomically the
// moment its run finishes, and execute() skips any run whose record already
// exists and carries the current spec digest — so a sweep killed mid-flight
// (including via the RP_FAULT site "sweep.run") resumes with only the
// missing runs. Every row is a pure function of (spec, run
// index): summarize() concatenates record payloads in index order, which
// makes results.csv byte-identical at any RP_THREADS, interrupted or not.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/offload_study.hpp"
#include "core/viability_study.hpp"
#include "io/ledger.hpp"
#include "offload/peer_groups.hpp"
#include "sweep/spec.hpp"

namespace rp::sweep {

/// Results-table schema version (bumped when columns change meaning).
inline constexpr int kResultsSchemaVersion = 1;

/// One run's row: its index, its world, and the §4/§5 outcome at its prices.
struct RunResult {
  std::size_t index = 0;
  /// Snapshot-cache key of the run's world (shared across a world group).
  std::string world_digest;
  core::WorldOutcome outcome;
};

/// The per-world inputs shared by every run of a world group: one set per
/// plain grid, one per swept epoch of a timeline spec (same world digest —
/// the epochs share the base world's cache key — but each epoch's own
/// study, curve, and prices).
struct WorldArtifacts {
  std::string world_digest;
  double initial_bps = 0.0;
  std::vector<offload::GreedyStep> curve;
  /// Epoch prices (timeline `prices` / `price-decay` events applied): the
  /// pricing baseline the spec's econ pins override. Unset on plain grids.
  std::optional<econ::CostParameters> prices;
};

/// Derives the shared artifacts from a finished §4 study.
WorldArtifacts world_artifacts(const core::OffloadStudy& study,
                               offload::PeerGroup group, std::size_t steps);

/// Evaluates one run against its world's artifacts. Pure: the same
/// (spec, run, artifacts) always yields the same result.
RunResult evaluate_run(const SweepSpec& spec, const SweepRun& run,
                       const WorldArtifacts& artifacts);

/// A sweep directory: the io::RunLedger layout under the rpsweep names
/// (records are runs/run-<i>.rec).
struct SweepPaths : io::RunLedger {
  explicit SweepPaths(std::filesystem::path dir);
};

/// Writes <dir>/manifest.txt atomically (creating <dir>).
void write_manifest(const SweepSpec& spec, const std::filesystem::path& dir);

/// Reads the manifest back into a spec. Throws std::runtime_error when the
/// manifest is missing/malformed or its digest does not match its own spec
/// block (a hand-edited manifest must not silently redefine a sweep).
SweepSpec read_manifest(const std::filesystem::path& dir);

struct ExecuteOutcome {
  std::size_t total = 0;     ///< Runs in the grid.
  std::size_t executed = 0;  ///< Runs evaluated and recorded this call.
  std::size_t skipped = 0;   ///< Runs with a valid prior record.
  std::size_t worlds_built = 0;  ///< World groups that had to be realized.
};

struct EngineOptions {
  /// Scenario snapshot cache; empty uses io::default_cache_dir().
  std::filesystem::path cache_dir;
};

/// Executes every run lacking a valid completion record. Propagates the
/// first run failure (including an injected "sweep.run" fault) after the
/// in-flight batch settles; records written before the failure survive, so
/// a rerun resumes. Counts land in rp.sweep.* when metrics are enabled.
ExecuteOutcome execute_sweep(const SweepSpec& spec,
                             const std::filesystem::path& dir,
                             const EngineOptions& options = {});

/// Collates the records into results.csv / results.json (atomically).
/// Throws std::runtime_error naming the first missing run when the sweep is
/// incomplete. Returns the number of rows written.
std::size_t summarize_sweep(const SweepSpec& spec,
                            const std::filesystem::path& dir);

}  // namespace rp::sweep
