// The tentpole guarantee of rp::obs: counter totals are a pure function of
// the work performed, not the schedule. Running the paper-scale pipeline —
// spread study, offload analysis + greedy, snapshot encode/decode — must
// produce byte-identical deterministic-counter totals at RP_THREADS=1 and
// RP_THREADS=8 (Stability::kScheduling metrics are excluded by
// deterministic_snapshot; their *presence* is checked separately).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/spread_study.hpp"
#include "io/snapshot.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace rp::core {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.seed = 23;
  config.euroix = false;
  config.membership_scale = 0.05;
  config.topology.tier2_count = 20;
  config.topology.access_count = 80;
  config.topology.content_count = 20;
  config.topology.cdn_count = 6;
  config.topology.nren_count = 5;
  config.topology.enterprise_count = 40;
  return config;
}

/// Runs every instrumented stage once and returns the deterministic counter
/// totals serialized as flat JSON (sorted by name, exact integers).
std::string pipeline_fingerprint(const Scenario& scenario, unsigned threads) {
  util::ThreadPool::set_global_threads(threads);
  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);

  SpreadStudyConfig spread_config;
  spread_config.campaign.length = util::SimDuration::days(3);
  spread_config.campaign.queries_per_pch_lg = 3;
  spread_config.campaign.queries_per_ripe_lg = 2;
  const SpreadStudy spread = SpreadStudy::run(scenario, spread_config);

  OffloadStudyConfig offload_config;
  offload_config.rate_model.span = util::SimDuration::days(3);
  const OffloadStudy offload = OffloadStudy::run(scenario, offload_config);
  const auto steps =
      offload.analyzer().greedy_by_traffic(offload::PeerGroup::kAll, 4);

  const auto bytes = io::encode_scenario(scenario);
  const Scenario loaded = io::decode_scenario(bytes);

  std::ostringstream os;
  obs::write_metrics_json(
      os, obs::MetricsRegistry::global().deterministic_snapshot());

  obs::set_metrics_enabled(false);
  util::ThreadPool::set_global_threads(0);  // Restore the env default.
  return std::move(os).str();
}

TEST(ObsDeterminism, CounterTotalsIdenticalAcrossThreadCounts) {
  const Scenario scenario = Scenario::build(small_config());
  const std::string serial = pipeline_fingerprint(scenario, 1);
  const std::string parallel = pipeline_fingerprint(scenario, 8);

  ASSERT_FALSE(serial.empty());
  // Totals that measure work must not move with the schedule.
  EXPECT_EQ(serial, parallel);
  // And the fingerprint must actually cover every instrumented layer.
  for (const char* name :
       {"rp.pool.parallel_for.calls", "rp.bgp.routes.computed",
        "rp.measure.probes.sent", "rp.offload.greedy.steps",
        "rp.io.sections.encoded", "rp.io.checksum.verifies"})
    EXPECT_NE(serial.find(name), std::string::npos) << name;
}

TEST(ObsDeterminism, SchedulingMetricsExistButAreExcluded) {
  const Scenario scenario = Scenario::build(small_config());
  util::ThreadPool::set_global_threads(4);
  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  const auto bytes = io::encode_scenario(scenario);
  const Scenario loaded = io::decode_scenario(bytes);
  obs::set_metrics_enabled(false);
  util::ThreadPool::set_global_threads(0);

  bool saw_scheduling = false;
  for (const auto& m : obs::MetricsRegistry::global().snapshot())
    if (m.stability == obs::Stability::kScheduling && m.count > 0)
      saw_scheduling = true;
  EXPECT_TRUE(saw_scheduling)
      << "pool/timing metrics should record under a 4-thread pool";
  for (const auto& m :
       obs::MetricsRegistry::global().deterministic_snapshot())
    EXPECT_EQ(m.stability, obs::Stability::kDeterministic) << m.name;
}

}  // namespace
}  // namespace rp::core
