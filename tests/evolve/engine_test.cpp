// EpochTimeline engine tests on a real (tiny) world: event semantics epoch
// by epoch, the overlay-vs-fresh-rebuild byte-identity contract, thread-count
// invariance of replay artifacts, and kill/resume through the "evolve.apply"
// fault site.
#include "evolve/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "evolve/replay.hpp"
#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace rp::evolve {
namespace {

// A tiny world that still carries the full Euro-IX ecosystem: euroix=1 is
// what puts CATNIX/ESpanix (the vantage's home exchanges) on the map, which
// the churn events below lean on. Builds in well under a second.
constexpr const char* kTinyBase =
    "name engine-test\n"
    "base seed 31\n"
    "base euroix 1\n"
    "base membership_scale 0.05\n"
    "base topology.tier2_count 15\n"
    "base topology.access_count 60\n"
    "base topology.content_count 15\n"
    "base topology.cdn_count 5\n"
    "base topology.nren_count 4\n"
    "base topology.enterprise_count 30\n";

constexpr const char* kEvents =
    "epoch grow\n"
    "  join CATNIX 5 1\n"
    "  join ESpanix 3 0\n"
    "  prices 1.2 0.03 0.15 0.008 0.5\n"
    "epoch found\n"
    "  new-ixp TESTIX CATNIX 0.5\n"
    "  join TESTIX 4 0.5\n"
    "  capacity CATNIX 0.9\n"
    "  traffic 1.5\n"
    "epoch shrink\n"
    "  leave ESpanix 2\n"
    "  price-decay 0.9\n"
    "epoch dark\n"
    "  outage CATNIX\n"
    "  provider-fail AtratoNet\n"
    "epoch light\n"
    "  restore CATNIX\n"
    "  provider-restore AtratoNet\n"
    "  traffic 1.2\n";

std::size_t total_interfaces(const ixp::IxpEcosystem& eco) {
  std::size_t count = 0;
  for (const ixp::Ixp& ixp : eco.ixps()) count += ixp.interfaces().size();
  return count;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

class EpochTimelineTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    timeline_ = parse_timeline(std::string(kTinyBase) + kEvents);
    root_ = std::filesystem::path(testing::TempDir()) /
            ("rpevolve_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
    options_.cache_dir = shared_cache();
    options_.steps = 4;
    options_.days = 1.0;
  }
  void TearDown() override {
    fault::disarm_all();
    util::ThreadPool::set_global_threads(0);
    std::filesystem::remove_all(root_);
  }

  static std::filesystem::path shared_cache() {
    static const std::filesystem::path dir = [] {
      auto path = std::filesystem::path(testing::TempDir()) /
                  ("rpevolve_cache_" + std::to_string(::getpid()));
      std::filesystem::create_directories(path);
      return path;
    }();
    return dir;
  }

  // One base world for the whole binary (every test replays overlays on it).
  const core::Scenario& base() {
    static const core::Scenario scenario = core::Scenario::build_cached(
        parse_timeline(kTinyBase).base_config(), shared_cache());
    return scenario;
  }

  Timeline timeline_;
  std::filesystem::path root_;
  ReplayOptions options_;
};

TEST_F(EpochTimelineTest, CompositionFollowsEvents) {
  EpochTimeline engine(timeline_, base());
  ASSERT_EQ(engine.epoch_count(), 5u);
  const std::size_t base_interfaces = total_interfaces(base().ecosystem());

  const EpochState& grow = engine.state_at(0);
  EXPECT_EQ(grow.label, "grow");
  EXPECT_EQ(grow.joins, 8u);
  EXPECT_EQ(total_interfaces(grow.ecosystem), base_interfaces + 8);
  EXPECT_DOUBLE_EQ(grow.prices.transit_price, 1.2);
  EXPECT_DOUBLE_EQ(grow.prices.remote_fixed, 0.008);
  // join CATNIX with remote-share 1: all five arrive via a provider.
  const ixp::Ixp* catnix = grow.ecosystem.find("CATNIX");
  ASSERT_NE(catnix, nullptr);
  std::size_t catnix_remote = 0;
  for (const ixp::MemberInterface& iface : catnix->interfaces())
    catnix_remote += iface.kind == ixp::AttachmentKind::kRemoteViaProvider;
  EXPECT_GE(catnix_remote, 5u);

  const EpochState& found = engine.state_at(1);
  EXPECT_EQ(found.new_ixps, 1u);
  EXPECT_EQ(found.ecosystem.ixps().size(),
            base().ecosystem().ixps().size() + 1);
  const ixp::Ixp* testix = found.ecosystem.find("TESTIX");
  ASSERT_NE(testix, nullptr);
  EXPECT_EQ(testix->interfaces().size(), 4u);
  EXPECT_DOUBLE_EQ(found.ecosystem.find("CATNIX")->peak_traffic_tbps(), 0.9);
  EXPECT_DOUBLE_EQ(found.traffic_scale, 1.5);

  const EpochState& shrink = engine.state_at(2);
  EXPECT_GE(shrink.leaves, 2u);
  EXPECT_DOUBLE_EQ(shrink.prices.transit_price, 1.2 * 0.9);

  const EpochState& dark = engine.state_at(3);
  EXPECT_EQ(dark.ecosystem.find("CATNIX")->interfaces().size(), 0u);
  EXPECT_GT(dark.stashed, 0u);
  // Every AtratoNet pseudowire is down everywhere, not just at CATNIX.
  std::size_t atrato_index = 0;
  const auto providers = dark.ecosystem.providers();
  for (std::size_t i = 0; i < providers.size(); ++i)
    if (providers[i].name == "AtratoNet") atrato_index = i;
  for (const ixp::Ixp& ixp : dark.ecosystem.ixps())
    for (const ixp::MemberInterface& iface : ixp.interfaces())
      EXPECT_FALSE(iface.kind == ixp::AttachmentKind::kRemoteViaProvider &&
                   iface.provider_index == atrato_index)
          << ixp.acronym();

  const EpochState& light = engine.state_at(4);
  EXPECT_EQ(light.stashed, 0u);
  EXPECT_EQ(total_interfaces(light.ecosystem),
            total_interfaces(shrink.ecosystem));
  EXPECT_EQ(light.ecosystem.find("CATNIX")->interfaces().size(),
            shrink.ecosystem.find("CATNIX")->interfaces().size());
  EXPECT_DOUBLE_EQ(light.traffic_scale, 1.5 * 1.2);
}

// state_at and view_at hand out references into the engine's epoch cache;
// replaying later epochs must not move the earlier ones.
TEST_F(EpochTimelineTest, EarlierEpochStatesStayPutAsReplayAdvances) {
  EpochTimeline engine(timeline_, base());
  const EpochState* first = &engine.state_at(0);
  const ixp::IxpEcosystem* first_eco = &first->ecosystem;
  engine.state_at(4);
  EXPECT_EQ(&engine.state_at(0), first);
  EXPECT_EQ(&engine.state_at(0).ecosystem, first_eco);
  EXPECT_EQ(first->label, "grow");
}

TEST_F(EpochTimelineTest, ChurnNeverEvictsTheVantage) {
  Timeline timeline = parse_timeline(
      std::string(kTinyBase) +
      "epoch purge\n  leave CATNIX 500\n  leave ESpanix 500\n");
  EpochTimeline engine(timeline, base());
  const EpochState& purged = engine.state_at(0);
  for (const char* home : {"CATNIX", "ESpanix"}) {
    const ixp::Ixp* ixp = purged.ecosystem.find(home);
    ASSERT_NE(ixp, nullptr);
    EXPECT_TRUE(ixp->has_member(base().vantage())) << home;
  }
}

TEST_F(EpochTimelineTest, OverlayMatchesFreshRebuildByteForByte) {
  // Overlay path: replay on the shared (cached) base. Rebuild path: replay
  // on a scratch-built base. The encoded epoch worlds must be identical —
  // the determinism contract in the engine header.
  EpochTimeline overlay(timeline_, base());
  const core::Scenario fresh = core::Scenario::build(timeline_.base_config());
  EpochTimeline rebuilt(timeline_, fresh);
  for (std::size_t k = 0; k < timeline_.epochs.size(); ++k)
    EXPECT_EQ(io::encode_scenario(overlay.view_at(k)),
              io::encode_scenario(rebuilt.view_at(k)))
        << "epoch " << k;
  // rebuild_state_at is the same path packaged for benches.
  const EpochState last = rebuild_state_at(timeline_, 4);
  EXPECT_EQ(total_interfaces(last.ecosystem),
            total_interfaces(overlay.state_at(4).ecosystem));
}

TEST_F(EpochTimelineTest, ReplayArtifactsAreThreadCountInvariant) {
  const auto dir1 = root_ / "threads1";
  util::ThreadPool::set_global_threads(1);
  EXPECT_EQ(replay_timeline(timeline_, dir1, options_).executed, 5u);
  EXPECT_EQ(summarize_replay(timeline_, dir1), 5u);

  const auto dir8 = root_ / "threads8";
  util::ThreadPool::set_global_threads(8);
  EXPECT_EQ(replay_timeline(timeline_, dir8, options_).executed, 5u);
  EXPECT_EQ(summarize_replay(timeline_, dir8), 5u);

  const EvolvePaths paths1(dir1), paths8(dir8);
  EXPECT_EQ(read_file(paths1.results_csv()), read_file(paths8.results_csv()));
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_EQ(read_file(paths1.snapshot(k)), read_file(paths8.snapshot(k)))
        << "epoch " << k;
}

TEST_F(EpochTimelineTest, FaultInterruptThenResumeIsByteIdentical) {
  const auto reference = root_ / "reference";
  EXPECT_EQ(replay_timeline(timeline_, reference, options_).executed, 5u);
  summarize_replay(timeline_, reference);

  const auto dir = root_ / "interrupted";
  // 17 events in the timeline: kill mid-replay, inside an epoch.
  fault::arm(std::string(fault::kSiteEvolveApply) + ":nth=7");
  EXPECT_THROW(replay_timeline(timeline_, dir, options_),
               fault::InjectedFault);
  fault::disarm_all();
  const std::size_t survived = EvolvePaths(dir).completed(
      timeline_digest_hex(timeline_), timeline_.epochs.size());
  EXPECT_GT(survived, 0u);
  EXPECT_LT(survived, 5u);
  EXPECT_THROW(summarize_replay(timeline_, dir), std::runtime_error);

  const ReplayOutcome resumed = replay_timeline(timeline_, dir, options_);
  EXPECT_EQ(resumed.skipped, survived);
  EXPECT_EQ(resumed.executed, 5u - survived);
  summarize_replay(timeline_, dir);
  const EvolvePaths got(dir), want(reference);
  EXPECT_EQ(read_file(got.results_csv()), read_file(want.results_csv()));
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_EQ(read_file(got.snapshot(k)), read_file(want.snapshot(k)))
        << "epoch " << k;
}

// The on-disk bytes of a replay directory: the manifest and one epoch
// record, exactly as a resume reads them back.
TEST_F(EpochTimelineTest, ManifestAndRecordBytesArePinned) {
  const auto dir = root_ / "pinned";
  options_.snapshots = false;
  write_manifest(timeline_, dir);
  EXPECT_EQ(replay_timeline(timeline_, dir, options_).executed, 5u);
  const EvolvePaths paths(dir);
  EXPECT_EQ(read_file(paths.manifest()),
            "rpevolve-manifest v1\n"
            "digest 8498ecbd7712b217\n"
            "epochs 5\n"
            "timeline\n"
            "name engine-test\n"
            "fast 0\n"
            "base seed 31\n"
            "base euroix 1\n"
            "base membership_scale 0.05\n"
            "base topology.tier2_count 15\n"
            "base topology.access_count 60\n"
            "base topology.content_count 15\n"
            "base topology.cdn_count 5\n"
            "base topology.nren_count 4\n"
            "base topology.enterprise_count 30\n"
            "epoch grow\n"
            "join CATNIX 5 1\n"
            "join ESpanix 3 0\n"
            "prices 1.2 0.03 0.15 0.008 0.5\n"
            "epoch found\n"
            "new-ixp TESTIX CATNIX 0.5\n"
            "join TESTIX 4 0.5\n"
            "capacity CATNIX 0.9\n"
            "traffic 1.5\n"
            "epoch shrink\n"
            "leave ESpanix 2\n"
            "price-decay 0.9\n"
            "epoch dark\n"
            "outage CATNIX\n"
            "provider-fail AtratoNet\n"
            "epoch light\n"
            "restore CATNIX\n"
            "provider-restore AtratoNet\n"
            "traffic 1.2\n");
  EXPECT_EQ(read_file(paths.record(1)),
            "rpevolve-record v1 8498ecbd7712b217 1\n"
            "1,found,4,4,0,1,0,66,433,55,1.5,ok,1.469381995e+10,0.6650089495,4,"
            "0.8331702531,4.048189163,1.099764098,1\n"
            "{\"epoch\":1,\"label\":\"found\",\"events\":4,\"joins\":4,"
            "\"leaves\":0,\"new_ixps\":1,\"stashed\":0,\"ixps\":66,"
            "\"interfaces\":433,\"remote_interfaces\":55,\"traffic_scale\":1.5,"
            "\"status\":\"ok\",\"transit_bps\":1.469381995e+10,"
            "\"offload_fraction\":0.6650089495,\"greedy_picked\":4,"
            "\"fitted_decay\":0.8331702531,\"optimal_n\":4.048189163,"
            "\"optimal_m\":1.099764098,\"viable\":true}\n");
}

TEST_F(EpochTimelineTest, ManifestRoundTripsAndRejectsTampering) {
  const auto dir = root_ / "manifest";
  write_manifest(timeline_, dir);
  const Timeline loaded = read_manifest(dir);
  EXPECT_EQ(timeline_digest_hex(loaded), timeline_digest_hex(timeline_));
  EXPECT_EQ(canonical_timeline_text(loaded),
            canonical_timeline_text(timeline_));
  std::string text = read_file(EvolvePaths(dir).manifest());
  const auto at = text.find("join CATNIX 5");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 13, "join CATNIX 6");
  std::ofstream(EvolvePaths(dir).manifest(), std::ios::trunc) << text;
  EXPECT_THROW(read_manifest(dir), std::runtime_error);
  EXPECT_THROW(read_manifest(root_ / "nowhere"), std::runtime_error);
}

TEST_F(EpochTimelineTest, RejectsMismatchedBaseWorld) {
  core::ScenarioConfig other = timeline_.base_config();
  other.seed = 32;
  const core::Scenario wrong =
      core::Scenario::build_cached(other, shared_cache());
  EXPECT_THROW(EpochTimeline(timeline_, wrong), std::invalid_argument);
}

TEST_F(EpochTimelineTest, StudyConfigScalesTrafficCumulatively) {
  EpochTimeline engine(timeline_, base());
  core::OffloadStudyConfig plain;
  const core::OffloadStudyConfig at1 = engine.study_config_at(1);
  EXPECT_DOUBLE_EQ(at1.traffic.total_inbound_gbps,
                   plain.traffic.total_inbound_gbps * 1.5);
  const core::OffloadStudyConfig at4 = engine.study_config_at(4);
  EXPECT_DOUBLE_EQ(at4.traffic.total_outbound_gbps,
                   plain.traffic.total_outbound_gbps * 1.5 * 1.2);
}

TEST_F(EpochTimelineTest, UnknownNamesAndRangesAreRejected) {
  EpochTimeline past(timeline_, base());
  EXPECT_THROW(past.state_at(5), std::out_of_range);
  Timeline bad_ixp = parse_timeline(std::string(kTinyBase) +
                                    "epoch a\n  join NOSUCH 2\n");
  EXPECT_THROW(EpochTimeline(bad_ixp, base()).state_at(0),
               std::invalid_argument);
  Timeline bad_provider = parse_timeline(
      std::string(kTinyBase) + "epoch a\n  provider-fail NoSuchCarrier\n");
  EXPECT_THROW(EpochTimeline(bad_provider, base()).state_at(0),
               std::invalid_argument);
  Timeline dup_ixp = parse_timeline(std::string(kTinyBase) +
                                    "epoch a\n  new-ixp CATNIX ESpanix 0.5\n");
  EXPECT_THROW(EpochTimeline(dup_ixp, base()).state_at(0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rp::evolve
