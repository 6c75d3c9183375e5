// Executor tests: peering what-if answers against the offload analyzer's
// potential_at, the one offload-potential path, rendered field by field.
#include "serve/executor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config_fields.hpp"

namespace rp::serve {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

std::shared_ptr<const World> fast_world() {
  static const std::shared_ptr<const World> world = [] {
    const auto dir = std::filesystem::temp_directory_path() /
                     "rp_serve_executor_test_cache";
    std::filesystem::create_directories(dir);
    WorldPool pool(1, dir);
    core::ScenarioConfig config;
    core::apply_fast_mode(config);
    return pool.acquire(config);
  }();
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

}  // namespace
}  // namespace rp::serve
