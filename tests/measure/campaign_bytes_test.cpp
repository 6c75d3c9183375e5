// Pins the exact bytes of every §3 campaign on a fast-mode all-IXP world:
// the FNV-1a digest of the concatenated write_dataset output and the summed
// events_executed. The simulator applies broadcast ARP requests for other
// addresses at transmit time instead of scheduling their deliveries
// (DESIGN.md §13); these constants were computed with every delivery
// scheduled as an event, so they prove the shortcut changes no dataset
// byte and no event count.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/config_fields.hpp"
#include "core/spread_study.hpp"
#include "io/container.hpp"
#include "measure/dataset_io.hpp"
#include "measure/faults.hpp"

namespace rp::measure {
namespace {

const core::Scenario& world() {
  static const core::Scenario scenario = [] {
    core::ScenarioConfig config;
    core::apply_fast_mode(config);
    config.measure_all_ixps = true;
    return core::Scenario::build(config);
  }();
  return scenario;
}

struct CampaignPin {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

CampaignPin pin(bool route_server_crosscheck) {
  core::SpreadStudyConfig config;
  config.campaign.route_server_crosscheck = route_server_crosscheck;
  const core::SpreadStudy study = core::SpreadStudy::run(world(), config);
  std::ostringstream bytes;
  CampaignPin out;
  for (const IxpMeasurement& measurement : study.raw_measurements()) {
    write_dataset(measurement, bytes);
    out.events += measurement.events_executed;
  }
  out.digest = io::fnv1a64(bytes.str());
  return out;
}

TEST(CampaignBytes, WorldHasTrunksAndAbsentTargets) {
  // Trunk frames between fabric sites stay delivery events, and an absent
  // target is re-ARPed (a fresh flood) on every ping: the pins below only
  // cover those paths if the world has both.
  const CampaignConfig campaign;
  bool multi_site = false;
  bool absent_target = false;
  for (const ixp::IxpId id : world().measured_ixps()) {
    const ixp::Ixp& ixp = world().ecosystem().ixp(id);
    if (ixp.site_count() > 1) multi_site = true;
    // The same fault-plan draw run_ixp_campaign makes for this IXP.
    util::Rng rng = world().fork_rng(0x100 + ixp.id());
    util::Rng fault_rng = rng.fork(0xFA);
    const FaultPlan faults =
        plan_faults(ixp, campaign.faults, util::SimTime::origin(),
                    campaign.length, fault_rng);
    for (const auto& iface : ixp.interfaces())
      if (iface.discoverable && faults.for_address(iface.addr).absent)
        absent_target = true;
  }
  EXPECT_TRUE(multi_site);
  EXPECT_TRUE(absent_target);
}

TEST(CampaignBytes, DefaultCampaignIsPinned) {
  const CampaignPin got = pin(false);
  EXPECT_EQ(got.digest, 0xe4fad3cbc427af57ull);
  EXPECT_EQ(got.events, 398'398u);
}

TEST(CampaignBytes, RouteServerCampaignIsPinned) {
  const CampaignPin got = pin(true);
  EXPECT_EQ(got.digest, 0x2bbdf843c6fda188ull);
  EXPECT_EQ(got.events, 564'649u);
}

}  // namespace
}  // namespace rp::measure
