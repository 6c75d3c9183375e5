#include "evolve/replay.hpp"

#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sim_time.hpp"

namespace rp::evolve {
namespace {

constexpr io::LedgerFormat kLedger{
    .tool = "rpevolve",
    .study = "replay",
    .unit = "epoch",
    .block = "timeline",
    .record_digits = 4,
    .schema = kEvolveSchemaVersion,
    .start_hint = "`rpevolve plan` or `rpevolve replay`",
    .finish_hint = "`rpevolve replay`",
};

/// The results table's one column list.
io::LedgerRow results_row(const EpochResult& result) {
  const EpochComposition& c = result.composition;
  const core::WorldOutcome& o = result.outcome;
  io::LedgerRow row;
  row.count("epoch", result.index)
      .text("label", c.label)
      .count("events", c.events)
      .count("joins", c.joins)
      .count("leaves", c.leaves)
      .count("new_ixps", c.new_ixps)
      .count("stashed", c.stashed)
      .count("ixps", c.ixps)
      .count("interfaces", c.interfaces)
      .count("remote_interfaces", c.remote_interfaces)
      .number("traffic_scale", c.traffic_scale)
      .text("status", o.status)
      .number("transit_bps", o.transit_bps)
      .number("offload_fraction", o.offload_fraction)
      .count("greedy_picked", o.greedy_picked)
      .number("fitted_decay", o.fitted_decay)
      .number("optimal_n", o.optimal_n)
      .number("optimal_m", o.optimal_m)
      .flag("viable", o.viable);
  return row;
}

}  // namespace

EvolvePaths::EvolvePaths(std::filesystem::path dir)
    : io::RunLedger(kLedger, std::move(dir)) {}

std::filesystem::path EvolvePaths::snapshot(std::size_t k) const {
  return record(k).replace_extension(".rpsnap");
}

void write_manifest(const Timeline& timeline,
                    const std::filesystem::path& dir) {
  EvolvePaths(dir).write_manifest(timeline_digest_hex(timeline),
                                  timeline.epochs.size(),
                                  canonical_timeline_text(timeline));
}

Timeline read_manifest(const std::filesystem::path& dir) {
  const EvolvePaths paths(dir);
  const io::LedgerManifest manifest = paths.read_manifest();
  Timeline timeline = parse_timeline(manifest.block);
  paths.check_manifest(manifest, timeline_digest_hex(timeline),
                       timeline.epochs.size());
  return timeline;
}

EpochResult evaluate_epoch(EpochTimeline& engine, std::size_t k,
                           const ReplayOptions& options) {
  obs::Span span("evolve.epoch");
  const EpochState& state = engine.state_at(k);
  core::OffloadStudyConfig study_config = engine.study_config_at(k);
  study_config.rate_model.span =
      util::SimDuration::days(static_cast<std::int64_t>(options.days));
  const core::OffloadStudy study =
      core::OffloadStudy::run(engine.view_at(k), study_config);
  const offload::OffloadAnalyzer& analyzer = study.analyzer();
  return EpochResult{
      k, composition_of(state),
      core::evaluate_world(
          analyzer.greedy_by_traffic(offload::PeerGroup::kAll, options.steps),
          analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps(),
          state.prices, /*decay_pinned=*/false)};
}

ReplayOutcome replay_timeline(const Timeline& timeline,
                              const std::filesystem::path& dir,
                              const ReplayOptions& options) {
  obs::Span span("evolve.replay");
  static obs::Counter replays("rp.evolve.replays");
  static obs::Counter epochs_recorded("rp.evolve.epochs.recorded");
  static obs::Counter epochs_skipped("rp.evolve.epochs.skipped");
  replays.add();

  const EvolvePaths paths(dir);
  std::filesystem::create_directories(paths.records_dir());
  const std::filesystem::path cache_dir =
      options.cache_dir.empty() ? io::default_cache_dir() : options.cache_dir;
  const std::string digest = timeline_digest_hex(timeline);

  const core::Scenario base =
      core::Scenario::build_cached(timeline.base_config(), cache_dir);
  EpochTimeline engine(timeline, base);

  ReplayOutcome outcome;
  outcome.total = engine.epoch_count();
  for (std::size_t k = 0; k < engine.epoch_count(); ++k) {
    const bool recorded =
        paths.read_record(digest, k) &&
        (!options.snapshots || std::filesystem::exists(paths.snapshot(k)));
    if (recorded) {
      // The engine stays lazy: a later missing epoch replays the cursor
      // through this one without re-evaluating its study.
      ++outcome.skipped;
      epochs_skipped.add();
      continue;
    }
    const io::LedgerRow row = results_row(evaluate_epoch(engine, k, options));
    if (options.snapshots)
      io::save_scenario(engine.view_at(k), paths.snapshot(k));
    paths.write_record(digest, k, row.csv(), row.json());
    ++outcome.executed;
    epochs_recorded.add();
  }
  return outcome;
}

std::size_t summarize_replay(const Timeline& timeline,
                             const std::filesystem::path& dir) {
  obs::Span span("evolve.summarize");
  static obs::Counter summaries("rp.evolve.summaries");
  const std::size_t rows = EvolvePaths(dir).collate(
      timeline_digest_hex(timeline), timeline.epochs.size(), timeline.name,
      results_row(EpochResult{}).header());
  summaries.add();
  return rows;
}

}  // namespace rp::evolve
