// Executor tests: peering what-if answers against the offload analyzer's
// potential_at, the one offload-potential path, and offload-curve,
// viability and econ what-if answers, read from the world's cached greedy
// curves, against fresh greedy runs — each rendered field by field.
#include "serve/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config_fields.hpp"
#include "core/viability_study.hpp"
#include "evolve/timeline.hpp"

namespace rp::serve {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

/// A new resident fast world, with no artifact built yet. The snapshot
/// cache is shared, so only the first call pays the scenario build.
std::shared_ptr<const World> fresh_fast_world() {
  const auto dir = std::filesystem::temp_directory_path() /
                   "rp_serve_executor_test_cache";
  std::filesystem::create_directories(dir);
  WorldPool pool(1, dir);
  core::ScenarioConfig config;
  core::apply_fast_mode(config);
  return pool.acquire(config);
}

std::shared_ptr<const World> fast_world() {
  static const std::shared_ptr<const World> world = fresh_fast_world();
  return world;
}

Request peering_what_if(std::uint8_t group, std::vector<std::string> reached,
                        std::vector<std::string> added) {
  Request request;
  request.type = RequestType::kWhatIf;
  request.id = 7;
  request.world.fast = true;
  request.whatif_mode = 2;
  request.group = group;
  request.reached_ixps = std::move(reached);
  request.added_ixps = std::move(added);
  return request;
}

std::vector<ixp::IxpId> ids_of(const World& world,
                               const std::vector<std::string>& acronyms) {
  std::vector<ixp::IxpId> ids;
  for (const std::string& acronym : acronyms)
    ids.push_back(world.scenario().ecosystem().find(acronym)->id());
  return ids;
}

/// The payload a peering what-if must carry: potential_at over the reached
/// set and over the reached set plus the added IXPs, rendered as the
/// executor renders them.
Fields oracle(const World& world, const Request& request) {
  const offload::OffloadAnalyzer& analyzer = world.offload().analyzer();
  const auto group = static_cast<offload::PeerGroup>(request.group);
  std::vector<ixp::IxpId> reached = ids_of(world, request.reached_ixps);
  const offload::Potential base = analyzer.potential_at(reached, group);
  for (ixp::IxpId id : ids_of(world, request.added_ixps)) reached.push_back(id);
  const offload::Potential whatif = analyzer.potential_at(reached, group);
  return {
      {"base.offload_bps", format_double(base.total_bps())},
      {"base.covered", std::to_string(base.covered_networks)},
      {"whatif.offload_bps", format_double(whatif.total_bps())},
      {"whatif.covered", std::to_string(whatif.covered_networks)},
      {"whatif.gained_bps",
       format_double(whatif.total_bps() - base.total_bps())},
  };
}

TEST(Executor, PeeringWhatIfMatchesTheAnalyzerOracle) {
  const auto world = fast_world();
  const auto& ixps = world->scenario().ecosystem().ixps();
  ASSERT_GE(ixps.size(), 4u);
  const std::string a = ixps[0].acronym();
  const std::string b = ixps[1].acronym();
  const std::string c = ixps[2].acronym();
  const std::string d = ixps[3].acronym();
  for (std::uint8_t group = 1; group <= 4; ++group) {
    SCOPED_TRACE("group " + std::to_string(group));
    const Request one_added = peering_what_if(group, {a, b}, {c});
    const Request two_added = peering_what_if(group, {a}, {c, d});
    const Request already_reached = peering_what_if(group, {a, b}, {b});
    for (const Request* request : {&one_added, &two_added, &already_reached}) {
      const Response response = execute_request(*request, world.get());
      ASSERT_EQ(response.status, Status::kOk) << response.message;
      EXPECT_EQ(response.id, request->id);
      EXPECT_EQ(response.fields, oracle(*world, *request));
    }
    // Adding a reached IXP gains nothing: the what-if repeats the base.
    const Response same = execute_request(already_reached, world.get());
    EXPECT_EQ(same.field("whatif.offload_bps"), same.field("base.offload_bps"));
    EXPECT_EQ(same.field("whatif.covered"), same.field("base.covered"));
    EXPECT_EQ(same.field("whatif.gained_bps"), "0");
  }
}

TEST(Executor, PeeringWhatIfNamesAnUnknownAcronym) {
  const auto world = fast_world();
  const std::string known = world->scenario().ecosystem().ixps()[0].acronym();
  for (const Request& request :
       {peering_what_if(4, {known}, {"NO-SUCH-IX"}),
        peering_what_if(4, {"NO-SUCH-IX"}, {known})}) {
    const Response response = execute_request(request, world.get());
    EXPECT_EQ(response.status, Status::kError);
    EXPECT_NE(response.message.find("NO-SUCH-IX"), std::string::npos)
        << response.message;
    EXPECT_TRUE(response.fields.empty());
  }
}

Request offload_curve(std::uint8_t group, std::uint64_t max_steps) {
  Request request;
  request.type = RequestType::kOffloadCurve;
  request.id = 11;
  request.world.fast = true;
  request.group = group;
  request.max_steps = max_steps;
  return request;
}

/// The payload an offload-curve must carry: a fresh
/// greedy_by_traffic(group, max_steps), rendered as the executor renders it.
Fields curve_oracle(const World& world, const Request& request) {
  const offload::OffloadAnalyzer& analyzer = world.offload().analyzer();
  const auto steps = analyzer.greedy_by_traffic(
      static_cast<offload::PeerGroup>(request.group),
      static_cast<std::size_t>(request.max_steps));
  Fields fields{
      {"offload.initial_bps",
       format_double(analyzer.transit_inbound_bps() +
                     analyzer.transit_outbound_bps())},
      {"offload.steps", std::to_string(steps.size())}};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::string prefix = "step." + std::to_string(i);
    fields.emplace_back(prefix + ".acronym", steps[i].acronym);
    fields.emplace_back(prefix + ".gained_bps",
                        format_double(steps[i].gained));
    fields.emplace_back(prefix + ".remaining_bps",
                        format_double(steps[i].remaining));
  }
  return fields;
}

econ::CostParameters params_of(const EconPrices& prices) {
  econ::CostParameters params;
  params.transit_price = prices.p;
  params.direct_fixed = prices.g;
  params.direct_unit = prices.u;
  params.remote_fixed = prices.h;
  params.remote_unit = prices.v;
  return params;
}

/// The §5 study a fitted-decay answer must come from: a fresh 20-step
/// all-IXP greedy over the world's analyzer.
core::ViabilityStudy fit_oracle(const World& world, const EconPrices& prices) {
  const offload::OffloadAnalyzer& analyzer = world.offload().analyzer();
  return core::ViabilityStudy::from_greedy_curve(
      analyzer.greedy_by_traffic(offload::PeerGroup::kAll, 20),
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps(),
      params_of(prices));
}

Fields viability_oracle(const World& world, const Request& request) {
  const core::ViabilityStudy study = fit_oracle(world, request.prices);
  const econ::CostModel& model = study.model();
  return {
      {"viability.decay", format_double(study.fitted_decay())},
      {"viability.viable", study.remote_viable() ? "1" : "0"},
      {"viability.optimal_n", format_double(study.optimal_direct_n())},
      {"viability.optimal_m", format_double(study.optimal_remote_m())},
      {"viability.cost_without_remote",
       format_double(model.cost_without_remote(study.optimal_direct_n()))},
      {"viability.cost_with_remote",
       format_double(model.total_cost(study.optimal_direct_n(),
                                      study.optimal_remote_m()))},
      {"viability.critical_decay", format_double(model.critical_decay())},
  };
}

double optimal_cost(const econ::CostModel& model) {
  return model.total_cost(model.optimal_direct_n(), model.optimal_remote_m());
}

Fields econ_what_if_oracle(const World& world, const Request& request) {
  const core::ViabilityStudy base = fit_oracle(world, request.prices);
  econ::CostParameters variant_params = params_of(request.variant);
  variant_params.decay = base.fitted_decay();
  const econ::CostModel variant(variant_params);
  Fields fields{{"whatif.decay", format_double(base.fitted_decay())}};
  auto point = [&fields](const std::string& prefix,
                         const econ::CostModel& model) {
    fields.emplace_back(prefix + ".viable", model.remote_viable() ? "1" : "0");
    fields.emplace_back(prefix + ".optimal_n",
                        format_double(model.optimal_direct_n()));
    fields.emplace_back(prefix + ".optimal_m",
                        format_double(model.optimal_remote_m()));
    fields.emplace_back(prefix + ".cost", format_double(optimal_cost(model)));
  };
  point("base", base.model());
  point("variant", variant);
  fields.emplace_back(
      "whatif.cost_delta",
      format_double(optimal_cost(variant) - optimal_cost(base.model())));
  return fields;
}

Request viability(EconPrices prices) {
  Request request;
  request.type = RequestType::kViability;
  request.id = 12;
  request.world.fast = true;
  request.prices = prices;
  return request;
}

Request econ_what_if(EconPrices base, EconPrices variant) {
  Request request;
  request.type = RequestType::kWhatIf;
  request.id = 13;
  request.world.fast = true;
  request.whatif_mode = 1;
  request.prices = base;
  request.variant = variant;
  return request;
}

void expect_fitted_answers_match(const World& world) {
  EconPrices cheap_remote;
  cheap_remote.h = 0.003;
  cheap_remote.v = 0.3;
  for (const EconPrices& prices : {EconPrices{}, cheap_remote}) {
    const Request fit = viability(prices);
    const Response answer = execute_request(fit, &world);
    ASSERT_EQ(answer.status, Status::kOk) << answer.message;
    EXPECT_EQ(answer.fields, viability_oracle(world, fit));
    const Request what_if = econ_what_if(prices, cheap_remote);
    const Response delta = execute_request(what_if, &world);
    ASSERT_EQ(delta.status, Status::kOk) << delta.message;
    EXPECT_EQ(delta.fields, econ_what_if_oracle(world, what_if));
  }
}

TEST(Executor, CachedCurvesAnswerEveryPrefixAsAFreshGreedy) {
  // Two fresh worlds, asked in opposite max_steps orders: whichever request
  // builds a group's curve, its max_steps must not shape what is cached.
  std::vector<std::uint64_t> ascending{0, 1, 8, 20, 65, 1000000};
  std::vector<std::uint64_t> descending(ascending.rbegin(), ascending.rend());
  const auto up = fresh_fast_world();
  const auto down = fresh_fast_world();
  ASSERT_NE(up.get(), down.get());
  // The second world fits first, so its all-IXP curve is built by the fit.
  expect_fitted_answers_match(*down);
  for (const auto& [world, order] :
       {std::pair{up, ascending}, std::pair{down, descending}}) {
    for (std::uint8_t group = 1; group <= 4; ++group) {
      for (std::uint64_t steps : order) {
        SCOPED_TRACE("group " + std::to_string(group) + ", max_steps " +
                     std::to_string(steps));
        const Request request = offload_curve(group, steps);
        const Response response = execute_request(request, world.get());
        ASSERT_EQ(response.status, Status::kOk) << response.message;
        EXPECT_EQ(response.id, request.id);
        EXPECT_EQ(response.fields, curve_oracle(*world, request));
      }
    }
  }
  expect_fitted_answers_match(*up);
}

TEST(Executor, PrewarmNamesWhatItBuilt) {
  using offload::PeerGroup;
  const auto world = fresh_fast_world();
  const Request curve = offload_curve(2, 8);
  EXPECT_EQ(prewarm(curve, world.get()),
            kBuiltOffload | built_curve(PeerGroup::kOpenTop10Selective));
  EXPECT_EQ(prewarm(curve, world.get()), 0);
  // A fit reads the all-IXP curve; the offload study is already warm.
  EXPECT_EQ(prewarm(viability(EconPrices{}), world.get()),
            built_curve(PeerGroup::kAll));
  EXPECT_EQ(prewarm(offload_curve(9, 8), world.get()), 0);  // Bad group.
  EXPECT_EQ(built_names(kBuiltWorld | kBuiltOffload |
                        built_curve(PeerGroup::kAll)),
            "world,offload,curve.4");
  EXPECT_EQ(built_names(kBuiltSpread | built_curve(PeerGroup::kOpen)),
            "curve.1,spread");
  EXPECT_EQ(built_names(0), "none");
}

/// A two-epoch timeline over the fast world, in the canonical text rpq sends.
std::string fast_timeline() {
  return evolve::canonical_timeline_text(evolve::parse_timeline(
      "name pin-tl\nfast 1\n"
      "epoch a\njoin LINX 2 1\ntraffic 1.5\n"
      "epoch b\nleave LINX 1\nprice-decay 0.9\n"));
}

// Every field of a world-at-epoch answer on the fast world, pinned.
TEST(Executor, WorldAtEpochResponseBytesArePinned) {
  Request request;
  request.type = RequestType::kWorldAtEpoch;
  request.id = 31;
  request.world.fast = true;
  request.timeline = fast_timeline();
  request.epoch = 1;
  const Response response = execute_request(request, fast_world().get());
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  EXPECT_EQ(response.fields,
            (Fields{{"timeline.name", "pin-tl"},
                    {"timeline.digest", "d7a0a72257b8257f"},
                    {"epoch.index", "1"},
                    {"epoch.label", "b"},
                    {"epoch.events", "2"},
                    {"epoch.joins", "0"},
                    {"epoch.leaves", "1"},
                    {"epoch.new_ixps", "0"},
                    {"epoch.stashed", "0"},
                    {"epoch.ixps", "65"},
                    {"epoch.interfaces", "850"},
                    {"epoch.remote_interfaces", "99"},
                    {"epoch.traffic_scale", "1.5"}}));
}

// Every field of an epoch-series answer on the fast world, pinned.
TEST(Executor, EpochSeriesResponseBytesArePinned) {
  Request request;
  request.type = RequestType::kEpochSeries;
  request.id = 32;
  request.world.fast = true;
  request.timeline = fast_timeline();
  request.group = 3;
  request.max_steps = 5;
  const Response response = execute_request(request, fast_world().get());
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  EXPECT_EQ(response.fields,
            (Fields{{"timeline.name", "pin-tl"},
                    {"timeline.digest", "d7a0a72257b8257f"},
                    {"series.epochs", "2"},
                    {"epoch.0.label", "a"},
                    {"epoch.0.events", "2"},
                    {"epoch.0.joins", "2"},
                    {"epoch.0.leaves", "0"},
                    {"epoch.0.new_ixps", "0"},
                    {"epoch.0.stashed", "0"},
                    {"epoch.0.ixps", "65"},
                    {"epoch.0.interfaces", "851"},
                    {"epoch.0.remote_interfaces", "99"},
                    {"epoch.0.traffic_scale", "1.5"},
                    {"epoch.0.transit_bps", "1.769340259e+10"},
                    {"epoch.0.greedy_picked", "5"},
                    {"epoch.0.offload_fraction", "0.6955348133"},
                    {"epoch.1.label", "b"},
                    {"epoch.1.events", "2"},
                    {"epoch.1.joins", "0"},
                    {"epoch.1.leaves", "1"},
                    {"epoch.1.new_ixps", "0"},
                    {"epoch.1.stashed", "0"},
                    {"epoch.1.ixps", "65"},
                    {"epoch.1.interfaces", "850"},
                    {"epoch.1.remote_interfaces", "99"},
                    {"epoch.1.traffic_scale", "1.5"},
                    {"epoch.1.transit_bps", "1.769340259e+10"},
                    {"epoch.1.greedy_picked", "5"},
                    {"epoch.1.offload_fraction", "0.695089887"}}));
}

}  // namespace
}  // namespace rp::serve
