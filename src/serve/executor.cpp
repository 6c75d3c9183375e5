#include "serve/executor.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "core/viability_study.hpp"
#include "econ/cost_model.hpp"
#include "evolve/engine.hpp"
#include "evolve/timeline.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "offload/peer_groups.hpp"

namespace rp::serve {

namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::optional<offload::PeerGroup> valid_group(std::uint8_t group) {
  if (group < 1 || group > 4) return std::nullopt;
  return static_cast<offload::PeerGroup>(group);
}

offload::PeerGroup to_group(std::uint8_t group) {
  if (const auto valid = valid_group(group)) return *valid;
  throw std::invalid_argument("peer group must be 1..4, got " +
                              std::to_string(group));
}

/// The first `steps` steps of `curve`, or all of it when it is shorter. The
/// greedy is prefix-closed, so this is greedy_by_traffic(group, steps).
std::span<const offload::GreedyStep> prefix(
    const std::vector<offload::GreedyStep>& curve, std::uint64_t steps) {
  return std::span<const offload::GreedyStep>(curve).first(
      static_cast<std::size_t>(std::min<std::uint64_t>(steps, curve.size())));
}

/// The viability fit reads the first 20 steps of the all-IXP curve.
constexpr std::uint64_t kFitSteps = 20;

econ::CostParameters to_params(const EconPrices& prices, double decay) {
  econ::CostParameters params;
  params.transit_price = prices.p;
  params.direct_fixed = prices.g;
  params.direct_unit = prices.u;
  params.remote_fixed = prices.h;
  params.remote_unit = prices.v;
  params.decay = decay;
  return params;
}

void emit(Response& response, std::string key, std::string value) {
  response.fields.emplace_back(std::move(key), std::move(value));
}

void emit_f(Response& response, std::string key, double value) {
  emit(response, std::move(key), format_double(value));
}

void exec_world_info(const Request&, const World& world, Response& response) {
  const core::Scenario& scenario = world.scenario();
  emit(response, "world.digest", io::digest_hex(world.digest()));
  emit(response, "world.ases", fmt_u64(scenario.graph().as_count()));
  emit(response, "world.ixps", fmt_u64(scenario.ecosystem().ixps().size()));
  std::size_t interfaces = 0;
  for (const auto& ixp : scenario.ecosystem().ixps())
    interfaces += ixp.interfaces().size();
  emit(response, "world.interfaces", fmt_u64(interfaces));
  emit(response, "world.measured_ixps",
       fmt_u64(scenario.measured_ixps().size()));
  emit(response, "world.vantage_asn", fmt_u64(scenario.vantage().value()));
  const char* outcome = "hit";
  switch (world.cache_result().outcome) {
    case core::SnapshotCacheResult::Outcome::kHit:
      outcome = "hit";
      break;
    case core::SnapshotCacheResult::Outcome::kMiss:
      outcome = "miss";
      break;
    case core::SnapshotCacheResult::Outcome::kFallback:
      outcome = "fallback";
      break;
  }
  emit(response, "world.cache", outcome);
}

void exec_offload_curve(const Request& request, const World& world,
                        Response& response) {
  const offload::PeerGroup group = to_group(request.group);
  const offload::OffloadAnalyzer& analyzer = world.offload().analyzer();
  const auto steps = prefix(world.curve(group), request.max_steps);
  emit_f(response, "offload.initial_bps",
         analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps());
  emit(response, "offload.steps", fmt_u64(steps.size()));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::string prefix = "step." + std::to_string(i);
    emit(response, prefix + ".acronym", steps[i].acronym);
    emit_f(response, prefix + ".gained_bps", steps[i].gained);
    emit_f(response, prefix + ".remaining_bps", steps[i].remaining);
  }
}

core::ViabilityStudy viability_for(const Request& request,
                                   const World& world) {
  if (!request.fitted_decay)
    return core::ViabilityStudy::from_decay(
        request.decay, to_params(request.prices, request.decay));
  const offload::OffloadAnalyzer& analyzer = world.offload().analyzer();
  return core::ViabilityStudy::from_greedy_curve(
      prefix(world.curve(offload::PeerGroup::kAll), kFitSteps),
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps(),
      to_params(request.prices, 0.0));
}

void exec_viability(const Request& request, const World& world,
                    Response& response) {
  const core::ViabilityStudy study = viability_for(request, world);
  emit_f(response, "viability.decay", study.fitted_decay());
  emit(response, "viability.viable", study.remote_viable() ? "1" : "0");
  emit_f(response, "viability.optimal_n", study.optimal_direct_n());
  emit_f(response, "viability.optimal_m", study.optimal_remote_m());
  const econ::CostModel& model = study.model();
  emit_f(response, "viability.cost_without_remote",
         model.cost_without_remote(study.optimal_direct_n()));
  emit_f(response, "viability.cost_with_remote",
         model.total_cost(study.optimal_direct_n(), study.optimal_remote_m()));
  emit_f(response, "viability.critical_decay", model.critical_decay());
}

void exec_spread(const Request&, const World& world, Response& response) {
  const measure::SpreadReport& report = world.spread().report();
  emit(response, "spread.probed", fmt_u64(report.total_probed()));
  emit(response, "spread.analyzed", fmt_u64(report.total_analyzed()));
  emit(response, "spread.identified_networks",
       fmt_u64(report.identified_networks()));
  emit(response, "spread.remote_networks", fmt_u64(report.remote_networks()));
  emit_f(response, "spread.ixps_with_remote_fraction",
         report.ixps_with_remote_fraction());
}

void emit_econ_point(Response& response, const std::string& prefix,
                     const econ::CostModel& model) {
  emit(response, prefix + ".viable", model.remote_viable() ? "1" : "0");
  emit_f(response, prefix + ".optimal_n", model.optimal_direct_n());
  emit_f(response, prefix + ".optimal_m", model.optimal_remote_m());
  emit_f(response, prefix + ".cost",
         model.total_cost(model.optimal_direct_n(), model.optimal_remote_m()));
}

std::vector<ixp::IxpId> resolve_ixps(const core::Scenario& scenario,
                                     const std::vector<std::string>& acronyms) {
  std::vector<ixp::IxpId> ids;
  ids.reserve(acronyms.size());
  for (const std::string& acronym : acronyms) {
    const ixp::Ixp* ixp = scenario.ecosystem().find(acronym);
    if (ixp == nullptr)
      throw std::invalid_argument("unknown IXP acronym '" + acronym + "'");
    ids.push_back(ixp->id());
  }
  return ids;
}

void exec_what_if(const Request& request, const World& world,
                  Response& response) {
  if (request.whatif_mode == 1) {
    // Econ what-if: both parameter sets against the world's fitted decay.
    const core::ViabilityStudy base = viability_for(request, world);
    const double decay = base.fitted_decay();
    const econ::CostModel variant(to_params(request.variant, decay));
    emit_f(response, "whatif.decay", decay);
    emit_econ_point(response, "base", base.model());
    emit_econ_point(response, "variant", variant);
    emit_f(response, "whatif.cost_delta",
           variant.total_cost(variant.optimal_direct_n(),
                              variant.optimal_remote_m()) -
               base.model().total_cost(base.optimal_direct_n(),
                                       base.optimal_remote_m()));
    return;
  }
  // Peering-set what-if: the offload potential at `reached_ixps` and at
  // `reached_ixps` plus `added_ixps`, both read from the analyzer's cached
  // coverage masks. Each is a pure function of its IXP set, so the response
  // bytes are independent of what-if ordering across clients.
  const offload::PeerGroup group = to_group(request.group);
  std::vector<ixp::IxpId> reached =
      resolve_ixps(world.scenario(), request.reached_ixps);
  const std::vector<ixp::IxpId> added =
      resolve_ixps(world.scenario(), request.added_ixps);
  const offload::OffloadAnalyzer& analyzer = world.offload().analyzer();
  const offload::Potential base = analyzer.potential_at(reached, group);
  reached.insert(reached.end(), added.begin(), added.end());
  const offload::Potential whatif = analyzer.potential_at(reached, group);
  emit_f(response, "base.offload_bps", base.total_bps());
  emit(response, "base.covered", fmt_u64(base.covered_networks));
  emit_f(response, "whatif.offload_bps", whatif.total_bps());
  emit(response, "whatif.covered", fmt_u64(whatif.covered_networks));
  emit_f(response, "whatif.gained_bps",
         whatif.total_bps() - base.total_bps());
}

void emit_epoch_composition(Response& response, const std::string& prefix,
                            const evolve::EpochState& state) {
  const evolve::EpochComposition c = evolve::composition_of(state);
  emit(response, prefix + ".label", c.label);
  emit(response, prefix + ".events", fmt_u64(c.events));
  emit(response, prefix + ".joins", fmt_u64(c.joins));
  emit(response, prefix + ".leaves", fmt_u64(c.leaves));
  emit(response, prefix + ".new_ixps", fmt_u64(c.new_ixps));
  emit(response, prefix + ".stashed", fmt_u64(c.stashed));
  emit(response, prefix + ".ixps", fmt_u64(c.ixps));
  emit(response, prefix + ".interfaces", fmt_u64(c.interfaces));
  emit(response, prefix + ".remote_interfaces", fmt_u64(c.remote_interfaces));
  emit_f(response, prefix + ".traffic_scale", c.traffic_scale);
}

// The engine refuses a timeline whose base config is not the request's world
// and an epoch past the last one; both become error responses.
void exec_world_at_epoch(const Request& request, const World& world,
                         Response& response) {
  evolve::EpochTimeline engine(evolve::parse_timeline(request.timeline),
                               world.scenario());
  const std::size_t k = static_cast<std::size_t>(request.epoch);
  const evolve::EpochState& state = engine.state_at(k);
  emit(response, "timeline.name", engine.timeline().name);
  emit(response, "timeline.digest",
       evolve::timeline_digest_hex(engine.timeline()));
  emit(response, "epoch.index", fmt_u64(k));
  emit_epoch_composition(response, "epoch", state);
}

void exec_epoch_series(const Request& request, const World& world,
                       Response& response) {
  const offload::PeerGroup group = to_group(request.group);
  evolve::EpochTimeline engine(evolve::parse_timeline(request.timeline),
                               world.scenario());
  emit(response, "timeline.name", engine.timeline().name);
  emit(response, "timeline.digest",
       evolve::timeline_digest_hex(engine.timeline()));
  emit(response, "series.epochs", fmt_u64(engine.epoch_count()));
  for (std::size_t k = 0; k < engine.epoch_count(); ++k) {
    const std::string prefix = "epoch." + std::to_string(k);
    emit_epoch_composition(response, prefix, engine.state_at(k));
    // The §4 numbers over the epoch overlay — same study entry point a plain
    // world query uses, so the bytes are RP_THREADS-independent.
    const core::OffloadStudy study = core::OffloadStudy::run(
        engine.view_at(k), engine.study_config_at(k));
    const offload::OffloadAnalyzer& analyzer = study.analyzer();
    const core::WorldOutcome outcome = core::offload_outcome(
        analyzer.greedy_by_traffic(
            group, static_cast<std::size_t>(request.max_steps)),
        analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps());
    emit_f(response, prefix + ".transit_bps", outcome.transit_bps);
    emit(response, prefix + ".greedy_picked", fmt_u64(outcome.greedy_picked));
    emit_f(response, prefix + ".offload_fraction", outcome.offload_fraction);
  }
}

}  // namespace

ArtifactNeeds artifact_needs(const Request& request) {
  ArtifactNeeds needs;
  switch (request.type) {
    case RequestType::kOffloadCurve:
      needs.offload = true;
      needs.curve = valid_group(request.group);
      break;
    case RequestType::kViability:
      if (request.fitted_decay) {
        needs.offload = true;
        needs.curve = offload::PeerGroup::kAll;
      }
      break;
    case RequestType::kSpread:
      needs.spread = true;
      break;
    case RequestType::kWhatIf:
      needs.offload = true;
      if (request.whatif_mode == 1) needs.curve = offload::PeerGroup::kAll;
      break;
    default:
      break;
  }
  return needs;
}

std::string built_names(std::uint8_t built) {
  std::string names;
  auto add = [&names](const std::string& name) {
    if (!names.empty()) names += ',';
    names += name;
  };
  if (built & kBuiltWorld) add("world");
  if (built & kBuiltOffload) add("offload");
  for (int group = 1; group <= 4; ++group)
    if (built & built_curve(static_cast<offload::PeerGroup>(group)))
      add("curve." + std::to_string(group));
  if (built & kBuiltSpread) add("spread");
  return names.empty() ? "none" : names;
}

std::uint8_t prewarm(const Request& request, const World* world) {
  std::uint8_t built = 0;
  if (world == nullptr) return built;
  const ArtifactNeeds needs = artifact_needs(request);
  bool fresh = false;
  try {
    if (needs.offload) {
      world->offload(&fresh);
      if (fresh) built |= kBuiltOffload;
    }
    if (needs.curve) {
      world->curve(*needs.curve, &fresh);
      if (fresh) built |= built_curve(*needs.curve);
    }
    if (needs.spread) {
      world->spread(&fresh);
      if (fresh) built |= kBuiltSpread;
    }
  } catch (const std::exception&) {
    // execute_request reports the failure in its own error response.
  }
  return built;
}

Response execute_request(const Request& request, const World* world) {
  static obs::Counter executed("rp.serve.requests.executed");
  static obs::Counter failed("rp.serve.requests.failed");
  Response response;
  response.id = request.id;
  try {
    switch (request.type) {
      case RequestType::kPing:
        response.fields.emplace_back("token", request.token);
        break;
      case RequestType::kShutdown:
        response.fields.emplace_back("shutdown", "1");
        break;
      case RequestType::kStats:
        // Answered inline by the daemon, which owns the queue/pool state the
        // report describes; reaching the executor means a worldless driver
        // (tests) sent one, and that is an error, not a crash.
        throw std::runtime_error("stats requests are answered by the daemon");
      default: {
        if (world == nullptr)
          throw std::runtime_error("no resident world for request");
        switch (request.type) {
          case RequestType::kWorldInfo:
            exec_world_info(request, *world, response);
            break;
          case RequestType::kOffloadCurve:
            exec_offload_curve(request, *world, response);
            break;
          case RequestType::kViability:
            exec_viability(request, *world, response);
            break;
          case RequestType::kSpread:
            exec_spread(request, *world, response);
            break;
          case RequestType::kWhatIf:
            exec_what_if(request, *world, response);
            break;
          case RequestType::kWorldAtEpoch:
            exec_world_at_epoch(request, *world, response);
            break;
          case RequestType::kEpochSeries:
            exec_epoch_series(request, *world, response);
            break;
          default:
            throw std::runtime_error("unhandled request type");
        }
      }
    }
    executed.add();
  } catch (const std::exception& e) {
    response.status = Status::kError;
    response.fields.clear();
    response.message = e.what();
    failed.add();
  }
  return response;
}

}  // namespace rp::serve
