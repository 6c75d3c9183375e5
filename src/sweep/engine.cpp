#include "sweep/engine.hpp"

#include <atomic>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/viability_study.hpp"
#include "evolve/engine.hpp"
#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rp::sweep {
namespace {

using util::format_double;

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
      spec, run,
      artifacts.has_epoch_prices ? &artifacts.epoch_prices : nullptr);
  RunResult result;
  result.index = run.index;
  result.world_digest = artifacts.world_digest;
  result.transit_bps = artifacts.initial_bps;
  result.greedy_picked = artifacts.curve.size();
  if (!artifacts.curve.empty() && artifacts.initial_bps > 0.0)
    result.offload_fraction =
        (artifacts.initial_bps - artifacts.curve.back().remaining) /
        artifacts.initial_bps;

  // The decay b: pinned by an econ.b base/axis, otherwise fitted from this
  // world's greedy curve (a flat curve keeps the spec's default b — the
  // result is still deterministic, just not world-informed).
  double decay = mat.prices.decay;
  if (!mat.decay_pinned) {
    try {
      decay = core::ViabilityStudy::from_greedy_curve(
                  artifacts.curve, artifacts.initial_bps, mat.prices)
                  .fitted_decay();
    } catch (const std::invalid_argument&) {
      // Curve never offloads (or the world is empty): keep the default b.
    }
  }
  try {
    const core::ViabilityStudy study =
        core::ViabilityStudy::from_decay(decay, mat.prices);
    const econ::CostModel& model = study.model();
    result.fitted_decay = decay;
    result.optimal_n = study.optimal_direct_n();
    result.optimal_m = study.optimal_remote_m();
    result.optimal_direct_fraction = study.optimal_direct_fraction();
    result.viability_ratio = model.viability_ratio();
    result.critical_decay = model.critical_decay();
    result.viable = study.remote_viable();
    result.cost_without_remote = model.cost_without_remote(result.optimal_n);
    result.cost_with_remote =
        model.total_cost(result.optimal_n, result.optimal_m);
  } catch (const std::invalid_argument&) {
    // Grid corners may cross ineqs. 7-8 (e.g. an econ.h axis reaching g).
    // Record the violation instead of aborting a thousand-run sweep.
    result.status = "invalid-params";
  }
  return result;
}

std::string results_csv_header(const SweepSpec& spec) {
  std::string header = "run";
  for (const auto& axis : spec.axes) header += "," + axis.field;
  header +=
      ",world,status,transit_bps,offload_fraction,greedy_picked,"
      "fitted_decay,optimal_n,optimal_m,optimal_direct_fraction,"
      "viability_ratio,critical_decay,viable,cost_without_remote,"
      "cost_with_remote";
  return header;
}

std::string results_csv_row(const SweepSpec& spec, const SweepRun& run,
                            const RunResult& result) {
  std::string row = std::to_string(run.index);
  for (std::size_t a = 0; a < spec.axes.size(); ++a)
    row += "," + run.values[a];
  row += "," + result.world_digest;
  row += "," + result.status;
  row += "," + format_double(result.transit_bps);
  row += "," + format_double(result.offload_fraction);
  row += "," + std::to_string(result.greedy_picked);
  row += "," + format_double(result.fitted_decay);
  row += "," + format_double(result.optimal_n);
  row += "," + format_double(result.optimal_m);
  row += "," + format_double(result.optimal_direct_fraction);
  row += "," + format_double(result.viability_ratio);
  row += "," + format_double(result.critical_decay);
  row += result.viable ? ",1" : ",0";
  row += "," + format_double(result.cost_without_remote);
  row += "," + format_double(result.cost_with_remote);
  return row;
}

std::string results_json_row(const SweepSpec& spec, const SweepRun& run,
                             const RunResult& result) {
  std::ostringstream out;
  out << "{\"run\":" << run.index << ",\"axes\":{";
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    if (a != 0) out << ",";
    out << "\"" << obs::json::escape(spec.axes[a].field) << "\":\""
        << obs::json::escape(run.values[a]) << "\"";
  }
  out << "},\"world\":\"" << obs::json::escape(result.world_digest) << "\""
      << ",\"status\":\"" << obs::json::escape(result.status) << "\""
      << ",\"transit_bps\":" << format_double(result.transit_bps)
      << ",\"offload_fraction\":" << format_double(result.offload_fraction)
      << ",\"greedy_picked\":" << result.greedy_picked
      << ",\"fitted_decay\":" << format_double(result.fitted_decay)
      << ",\"optimal_n\":" << format_double(result.optimal_n)
      << ",\"optimal_m\":" << format_double(result.optimal_m)
      << ",\"optimal_direct_fraction\":"
      << format_double(result.optimal_direct_fraction)
      << ",\"viability_ratio\":" << format_double(result.viability_ratio)
      << ",\"critical_decay\":" << format_double(result.critical_decay)
      << ",\"viable\":" << (result.viable ? "true" : "false")
      << ",\"cost_without_remote\":"
      << format_double(result.cost_without_remote)
      << ",\"cost_with_remote\":" << format_double(result.cost_with_remote)
      << "}";
  return out.str();
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

    // Timeline specs replay epochs over the group's world; each swept epoch
    // realizes its own artifacts lazily. Plain grids keep the single shared
    // artifact set. The engine cursor is per-group, so runs stay serial
    // within a group and parallelism stays across groups.
    std::optional<evolve::EpochTimeline> evolution;
    if (!spec.timeline.empty())
      evolution.emplace(evolve::parse_timeline(spec.timeline), scenario);
    std::unordered_map<std::size_t, WorldArtifacts> epoch_artifacts;
    WorldArtifacts shared_artifacts;
    if (!evolution) {
      const core::OffloadStudy study =
          core::OffloadStudy::run(scenario, study_config);
      shared_artifacts = world_artifacts(
          study, static_cast<offload::PeerGroup>(spec.group), spec.steps);
      shared_artifacts.world_digest = group.world_digest;
    }

    for (const std::size_t id : group.run_ids) {
      if (done[id] != 0) continue;
      obs::Span run_span("sweep.run");
      // The kill switch the resume tests arm: RP_FAULT=sweep.run:nth=K
      // aborts the sweep exactly K completed-or-attempted runs in, after
      // the records of earlier runs are already on disk.
      run_site.maybe_throw();
      const WorldArtifacts* artifacts = &shared_artifacts;
      if (evolution) {
        const std::size_t epoch = materialize_run(spec, runs[id]).epoch;
        const auto [it, inserted] = epoch_artifacts.try_emplace(epoch);
        if (inserted) {
          obs::Span epoch_span("sweep.epoch");
          const core::OffloadStudy study = core::OffloadStudy::run(
              evolution->view_at(epoch),
              evolution->study_config_at(epoch, study_config));
          it->second = world_artifacts(
              study, static_cast<offload::PeerGroup>(spec.group), spec.steps);
          it->second.world_digest = group.world_digest;
          it->second.epoch_prices = evolution->state_at(epoch).prices;
          it->second.has_epoch_prices = true;
        }
        artifacts = &it->second;
      }
      const RunResult result = evaluate_run(spec, runs[id], *artifacts);
      paths.write_record(digest, id, results_csv_row(spec, runs[id], result),
                         results_json_row(spec, runs[id], result));
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
  const std::size_t rows =
      SweepPaths(dir).collate(spec_digest_hex(spec), spec.run_count(),
                              spec.name, results_csv_header(spec));
  summaries.add();
  return rows;
}

}  // namespace rp::sweep
