#include "sweep/engine.hpp"

#include <atomic>
#include <optional>
#include <unordered_map>

#include "evolve/engine.hpp"
#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::sweep {
namespace {

constexpr io::LedgerFormat kLedger{
    .tool = "rpsweep",
    .study = "sweep",
    .unit = "run",
    .block = "spec",
    .record_digits = 6,
    .schema = kResultsSchemaVersion,
    .start_hint = "`rpsweep plan` or `rpsweep run`",
    .finish_hint = "`rpsweep resume`",
};

/// The results table's one column list: run, one column per axis (nested
/// under "axes" in the JSON), then the outcome.
io::LedgerRow results_row(const SweepSpec& spec, const SweepRun& run,
                          const RunResult& result) {
  const core::WorldOutcome& o = result.outcome;
  io::LedgerRow row;
  row.count("run", result.index).begin_object("axes");
  for (std::size_t a = 0; a < spec.axes.size(); ++a)
    row.text(spec.axes[a].field, run.values[a]);
  row.end_object()
      .text("world", result.world_digest)
      .text("status", o.status)
      .number("transit_bps", o.transit_bps)
      .number("offload_fraction", o.offload_fraction)
      .count("greedy_picked", o.greedy_picked)
      .number("fitted_decay", o.fitted_decay)
      .number("optimal_n", o.optimal_n)
      .number("optimal_m", o.optimal_m)
      .number("optimal_direct_fraction", o.optimal_direct_fraction)
      .number("viability_ratio", o.viability_ratio)
      .number("critical_decay", o.critical_decay)
      .flag("viable", o.viable)
      .number("cost_without_remote", o.cost_without_remote)
      .number("cost_with_remote", o.cost_with_remote);
  return row;
}

}  // namespace

WorldArtifacts world_artifacts(const core::OffloadStudy& study,
                               offload::PeerGroup group, std::size_t steps) {
  WorldArtifacts artifacts;
  const auto& analyzer = study.analyzer();
  artifacts.initial_bps =
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps();
  artifacts.curve = analyzer.greedy_by_traffic(group, steps);
  return artifacts;
}

RunResult evaluate_run(const SweepSpec& spec, const SweepRun& run,
                       const WorldArtifacts& artifacts) {
  const MaterializedRun mat = materialize_run(
      spec, run, artifacts.prices ? &*artifacts.prices : nullptr);
  return RunResult{run.index, artifacts.world_digest,
                   core::evaluate_world(artifacts.curve, artifacts.initial_bps,
                                        mat.prices, mat.decay_pinned)};
}

SweepPaths::SweepPaths(std::filesystem::path dir)
    : io::RunLedger(kLedger, std::move(dir)) {}

void write_manifest(const SweepSpec& spec, const std::filesystem::path& dir) {
  SweepPaths(dir).write_manifest(spec_digest_hex(spec), spec.run_count(),
                                 canonical_spec_text(spec));
}

SweepSpec read_manifest(const std::filesystem::path& dir) {
  const SweepPaths paths(dir);
  const io::LedgerManifest manifest = paths.read_manifest();
  SweepSpec spec = parse_sweep_spec(manifest.block);
  paths.check_manifest(manifest, spec_digest_hex(spec), spec.run_count());
  return spec;
}

ExecuteOutcome execute_sweep(const SweepSpec& spec,
                             const std::filesystem::path& dir,
                             const EngineOptions& options) {
  obs::Span span("sweep.execute");
  static obs::Counter runs_executed("rp.sweep.runs.executed");
  static obs::Counter runs_skipped("rp.sweep.runs.skipped");
  static obs::Counter worlds_built_counter("rp.sweep.worlds.built");
  static obs::Gauge runs_total("rp.sweep.runs.total");
  static fault::Site run_site(fault::kSiteSweepRun);

  const SweepPaths paths(dir);
  std::filesystem::create_directories(paths.records_dir());
  const std::filesystem::path cache_dir =
      options.cache_dir.empty() ? io::default_cache_dir() : options.cache_dir;
  const std::string digest = spec_digest_hex(spec);
  const std::vector<SweepRun> runs = expand_runs(spec);
  runs_total.set(static_cast<double>(runs.size()));

  // Shard by world: runs differing only in econ.* fields share a scenario
  // config, so the group realizes the world (and its offload study + greedy
  // curve) exactly once. Group order follows first appearance, but the
  // output does not depend on it — records are keyed by run index.
  struct Group {
    core::ScenarioConfig config;
    std::string world_digest;
    std::vector<std::size_t> run_ids;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> group_index;
  for (const auto& run : runs) {
    const MaterializedRun mat = materialize_run(spec, run);
    std::string world = io::config_digest_hex(mat.config);
    const auto [it, inserted] =
        group_index.try_emplace(std::move(world), groups.size());
    if (inserted)
      groups.push_back(Group{mat.config, io::config_digest_hex(mat.config), {}});
    groups[it->second].run_ids.push_back(run.index);
  }

  ExecuteOutcome outcome;
  outcome.total = runs.size();
  std::vector<char> done(runs.size(), 0);
  for (const auto& run : runs)
    done[run.index] = paths.read_record(digest, run.index) ? 1 : 0;
  for (const char d : done) outcome.skipped += d != 0 ? 1 : 0;
  runs_skipped.add(outcome.skipped);

  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> worlds_built{0};
  util::ThreadPool::global().parallel_for(groups.size(), [&](std::size_t gi) {
    const Group& group = groups[gi];
    bool pending = false;
    for (const std::size_t id : group.run_ids) pending |= done[id] == 0;
    if (!pending) return;

    obs::Span world_span("sweep.world");
    const core::Scenario scenario =
        core::Scenario::build_cached(group.config, cache_dir);
    core::OffloadStudyConfig study_config;
    study_config.rate_model.span =
        util::SimDuration::days(static_cast<std::int64_t>(spec.days));
    worlds_built.fetch_add(1, std::memory_order_relaxed);
    worlds_built_counter.add();

    // Every run reads the artifacts of its epoch, realized lazily: a timeline
    // spec's epochs are overlays on the group's world, and a plain grid is
    // epoch 0 of the world itself. The engine cursor is per-group, so runs
    // stay serial within a group and parallelism stays across groups.
    std::optional<evolve::EpochTimeline> evolution;
    if (!spec.timeline.empty())
      evolution.emplace(evolve::parse_timeline(spec.timeline), scenario);
    std::unordered_map<std::size_t, WorldArtifacts> epoch_artifacts;

    for (const std::size_t id : group.run_ids) {
      if (done[id] != 0) continue;
      obs::Span run_span("sweep.run");
      // The kill switch the resume tests arm: RP_FAULT=sweep.run:nth=K
      // aborts the sweep exactly K completed-or-attempted runs in, after
      // the records of earlier runs are already on disk.
      run_site.maybe_throw();
      const std::size_t epoch = materialize_run(spec, runs[id]).epoch;
      const auto [it, inserted] = epoch_artifacts.try_emplace(epoch);
      if (inserted) {
        obs::Span epoch_span("sweep.epoch");
        const core::OffloadStudy study = core::OffloadStudy::run(
            evolution ? evolution->view_at(epoch) : scenario.view(),
            evolution ? evolution->study_config_at(epoch, study_config)
                      : study_config);
        it->second = world_artifacts(
            study, static_cast<offload::PeerGroup>(spec.group), spec.steps);
        it->second.world_digest = group.world_digest;
        if (evolution) it->second.prices = evolution->state_at(epoch).prices;
      }
      const io::LedgerRow row = results_row(
          spec, runs[id], evaluate_run(spec, runs[id], it->second));
      paths.write_record(digest, id, row.csv(), row.json());
      executed.fetch_add(1, std::memory_order_relaxed);
      runs_executed.add();
    }
  });

  outcome.executed = executed.load();
  outcome.worlds_built = worlds_built.load();
  return outcome;
}

std::size_t summarize_sweep(const SweepSpec& spec,
                            const std::filesystem::path& dir) {
  obs::Span span("sweep.summarize");
  static obs::Counter summaries("rp.sweep.summaries");
  const SweepRun blank{0, std::vector<std::string>(spec.axes.size())};
  const std::size_t rows = SweepPaths(dir).collate(
      spec_digest_hex(spec), spec.run_count(), spec.name,
      results_row(spec, blank, RunResult{}).header());
  summaries.add();
  return rows;
}

}  // namespace rp::sweep
