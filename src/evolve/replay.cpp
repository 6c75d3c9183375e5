#include "evolve/replay.hpp"

#include <sstream>
#include <stdexcept>

#include "core/viability_study.hpp"
#include "io/snapshot.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sim_time.hpp"
#include "util/strings.hpp"

namespace rp::evolve {
namespace {

using util::format_double;

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

  EpochResult result;
  result.index = k;
  result.label = state.label;
  result.events = state.events;
  result.joins = state.joins;
  result.leaves = state.leaves;
  result.new_ixps = state.new_ixps;
  result.stashed = state.stashed;
  result.traffic_scale = state.traffic_scale;
  result.ixps = state.ecosystem.ixps().size();
  for (const ixp::Ixp& ixp : state.ecosystem.ixps()) {
    result.interfaces += ixp.interfaces().size();
    for (const ixp::MemberInterface& iface : ixp.interfaces())
      result.remote_interfaces += iface.is_remote_ground_truth() ? 1 : 0;
  }

  core::OffloadStudyConfig study_config = engine.study_config_at(k);
  study_config.rate_model.span =
      util::SimDuration::days(static_cast<std::int64_t>(options.days));
  const core::OffloadStudy study =
      core::OffloadStudy::run(engine.view_at(k), study_config);
  const offload::OffloadAnalyzer& analyzer = study.analyzer();
  result.transit_bps =
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps();
  const std::vector<offload::GreedyStep> curve = analyzer.greedy_by_traffic(
      static_cast<offload::PeerGroup>(options.group), options.steps);
  result.greedy_picked = curve.size();
  if (!curve.empty() && result.transit_bps > 0.0)
    result.offload_fraction =
        (result.transit_bps - curve.back().remaining) / result.transit_bps;

  // §5 at the epoch's prices: b fitted from the epoch's own greedy curve (a
  // flat curve keeps the prices' default b — deterministic either way).
  double decay = state.prices.decay;
  try {
    decay = core::ViabilityStudy::from_greedy_curve(curve, result.transit_bps,
                                                    state.prices)
                .fitted_decay();
  } catch (const std::invalid_argument&) {
  }
  try {
    const core::ViabilityStudy viability =
        core::ViabilityStudy::from_decay(decay, state.prices);
    result.fitted_decay = decay;
    result.optimal_n = viability.optimal_direct_n();
    result.optimal_m = viability.optimal_remote_m();
    result.viable = viability.remote_viable();
  } catch (const std::invalid_argument&) {
    // A price timeline may cross ineqs. 7-8 mid-decade; record, don't abort.
    result.status = "invalid-params";
  }
  return result;
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
    const EpochResult result = evaluate_epoch(engine, k, options);
    if (options.snapshots)
      io::save_scenario(engine.view_at(k), paths.snapshot(k));
    paths.write_record(digest, k, results_csv_row(result),
                       results_json_row(result));
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
      results_csv_header());
  summaries.add();
  return rows;
}

std::string results_csv_header() {
  return "epoch,label,events,joins,leaves,new_ixps,stashed,ixps,interfaces,"
         "remote_interfaces,traffic_scale,status,transit_bps,"
         "offload_fraction,greedy_picked,fitted_decay,optimal_n,optimal_m,"
         "viable";
}

std::string results_csv_row(const EpochResult& result) {
  std::string row = std::to_string(result.index);
  row += "," + result.label;
  row += "," + std::to_string(result.events);
  row += "," + std::to_string(result.joins);
  row += "," + std::to_string(result.leaves);
  row += "," + std::to_string(result.new_ixps);
  row += "," + std::to_string(result.stashed);
  row += "," + std::to_string(result.ixps);
  row += "," + std::to_string(result.interfaces);
  row += "," + std::to_string(result.remote_interfaces);
  row += "," + format_double(result.traffic_scale);
  row += "," + result.status;
  row += "," + format_double(result.transit_bps);
  row += "," + format_double(result.offload_fraction);
  row += "," + std::to_string(result.greedy_picked);
  row += "," + format_double(result.fitted_decay);
  row += "," + format_double(result.optimal_n);
  row += "," + format_double(result.optimal_m);
  row += result.viable ? ",1" : ",0";
  return row;
}

std::string results_json_row(const EpochResult& result) {
  std::ostringstream out;
  out << "{\"epoch\":" << result.index << ",\"label\":\""
      << obs::json::escape(result.label) << "\""
      << ",\"events\":" << result.events << ",\"joins\":" << result.joins
      << ",\"leaves\":" << result.leaves
      << ",\"new_ixps\":" << result.new_ixps
      << ",\"stashed\":" << result.stashed << ",\"ixps\":" << result.ixps
      << ",\"interfaces\":" << result.interfaces
      << ",\"remote_interfaces\":" << result.remote_interfaces
      << ",\"traffic_scale\":" << format_double(result.traffic_scale)
      << ",\"status\":\"" << obs::json::escape(result.status) << "\""
      << ",\"transit_bps\":" << format_double(result.transit_bps)
      << ",\"offload_fraction\":" << format_double(result.offload_fraction)
      << ",\"greedy_picked\":" << result.greedy_picked
      << ",\"fitted_decay\":" << format_double(result.fitted_decay)
      << ",\"optimal_n\":" << format_double(result.optimal_n)
      << ",\"optimal_m\":" << format_double(result.optimal_m)
      << ",\"viable\":" << (result.viable ? "true" : "false") << "}";
  return out.str();
}

}  // namespace rp::evolve
