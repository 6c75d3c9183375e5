// End-to-end engine tests on a real (tiny) world: the 24-run CI grid is
// executed at different thread counts, killed mid-flight through the
// "sweep.run" fault site, resumed, and the results tables compared for
// byte-identity — the contract DESIGN.md §12 promises.
#include "sweep/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "util/thread_pool.hpp"

namespace rp::sweep {
namespace {

// 6 econ.b x 4 econ.h values on one tiny shared world: every run reprices
// the same scenario, so the whole grid realizes exactly one world group.
constexpr const char* kGridSpec =
    "name engine-test\n"
    "group 4\n"
    "steps 12\n"
    "days 2\n"
    "base seed 31\n"
    "base euroix 0\n"
    "base membership_scale 0.05\n"
    "base topology.tier2_count 15\n"
    "base topology.access_count 60\n"
    "base topology.content_count 15\n"
    "base topology.cdn_count 5\n"
    "base topology.nren_count 4\n"
    "base topology.enterprise_count 30\n"
    "axis econ.b lin:0.2:1.2:6\n"
    "axis econ.h 0.002 0.006 0.01 0.016\n";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

class SweepEngineTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    spec_ = parse_sweep_spec(kGridSpec);
    root_ = std::filesystem::path(testing::TempDir()) /
            ("rpsweep_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
    options_.cache_dir = shared_cache();
  }
  void TearDown() override {
    fault::disarm_all();
    util::ThreadPool::set_global_threads(0);
    std::filesystem::remove_all(root_);
  }

  // One cache for the whole binary: the tiny world builds once, every later
  // execute_sweep (any test, any thread count) hits the snapshot cache.
  static std::filesystem::path shared_cache() {
    static const std::filesystem::path dir = [] {
      auto path = std::filesystem::path(testing::TempDir()) /
                  ("rpsweep_cache_" + std::to_string(::getpid()));
      std::filesystem::create_directories(path);
      return path;
    }();
    return dir;
  }

  // The single-threaded uninterrupted run everything else is compared to.
  const std::string& reference_csv() {
    static const std::string csv = [this] {
      const auto dir = root_ / "reference";
      util::ThreadPool::set_global_threads(1);
      const ExecuteOutcome outcome = execute_sweep(spec_, dir, options_);
      EXPECT_EQ(outcome.executed, spec_.run_count());
      EXPECT_EQ(summarize_sweep(spec_, dir), spec_.run_count());
      return read_file(SweepPaths(dir).results_csv());
    }();
    return csv;
  }

  SweepSpec spec_;
  std::filesystem::path root_;
  EngineOptions options_;
};

TEST_F(SweepEngineTest, GridSharesOneWorldAcrossAllRuns) {
  ASSERT_EQ(spec_.run_count(), 24u);
  const auto dir = root_ / "one-world";
  const ExecuteOutcome outcome = execute_sweep(spec_, dir, options_);
  EXPECT_EQ(outcome.total, 24u);
  EXPECT_EQ(outcome.executed, 24u);
  EXPECT_EQ(outcome.skipped, 0u);
  EXPECT_EQ(outcome.worlds_built, 1u);
  EXPECT_EQ(
      SweepPaths(dir).completed(spec_digest_hex(spec_), spec_.run_count()),
      24u);
  // Re-executing is a no-op: every record is valid.
  const ExecuteOutcome again = execute_sweep(spec_, dir, options_);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.skipped, 24u);
  EXPECT_EQ(again.worlds_built, 0u);
}

TEST_F(SweepEngineTest, ResultsAreByteIdenticalAcrossThreadCounts) {
  const std::string& reference = reference_csv();
  const auto dir = root_ / "threads8";
  util::ThreadPool::set_global_threads(8);
  execute_sweep(spec_, dir, options_);
  summarize_sweep(spec_, dir);
  EXPECT_EQ(read_file(SweepPaths(dir).results_csv()), reference);
}

TEST_F(SweepEngineTest, FaultInterruptThenResumeIsByteIdentical) {
  const std::string& reference = reference_csv();
  const auto dir = root_ / "interrupted";
  util::ThreadPool::set_global_threads(8);
  fault::arm(std::string(fault::kSiteSweepRun) + ":nth=9");
  EXPECT_THROW(execute_sweep(spec_, dir, options_), fault::InjectedFault);
  fault::disarm_all();
  const std::size_t survived =
      SweepPaths(dir).completed(spec_digest_hex(spec_), spec_.run_count());
  EXPECT_GT(survived, 0u);
  EXPECT_LT(survived, 24u);
  // The interrupted sweep cannot be summarized...
  EXPECT_THROW(summarize_sweep(spec_, dir), std::runtime_error);
  // ...but resumes with only the missing runs, to the exact same bytes.
  const ExecuteOutcome resumed = execute_sweep(spec_, dir, options_);
  EXPECT_EQ(resumed.skipped, survived);
  EXPECT_EQ(resumed.executed, 24u - survived);
  summarize_sweep(spec_, dir);
  EXPECT_EQ(read_file(SweepPaths(dir).results_csv()), reference);
}

// The on-disk bytes of a sweep directory: the manifest and one completion
// record, exactly as a resume reads them back.
TEST_F(SweepEngineTest, ManifestAndRecordBytesArePinned) {
  const auto dir = root_ / "pinned";
  write_manifest(spec_, dir);
  execute_sweep(spec_, dir, options_);
  const SweepPaths paths(dir);
  EXPECT_EQ(read_file(paths.manifest()),
            "rpsweep-manifest v1\n"
            "digest 689a11b4ddb625d5\n"
            "runs 24\n"
            "spec\n"
            "name engine-test\n"
            "group 4\n"
            "steps 12\n"
            "days 2\n"
            "fast 0\n"
            "base seed 31\n"
            "base euroix 0\n"
            "base membership_scale 0.05\n"
            "base topology.tier2_count 15\n"
            "base topology.access_count 60\n"
            "base topology.content_count 15\n"
            "base topology.cdn_count 5\n"
            "base topology.nren_count 4\n"
            "base topology.enterprise_count 30\n"
            "axis econ.b 0.2 0.4 0.6 0.8 1 1.2\n"
            "axis econ.h 0.002 0.006 0.01 0.016\n");
  EXPECT_EQ(read_file(paths.record(5)),
            "rpsweep-record v1 689a11b4ddb625d5 5\n"
            "5,0.4,0.006,4854cfc7a57b317c,ok,9795879966,0.991629971,4,0.4,"
            "6.931471806,2.073198387,0.9375,2.291666667,0.8292793549,1,"
            "0.3886294361,0.3816936264\n"
            "{\"run\":5,\"axes\":{\"econ.b\":\"0.4\",\"econ.h\":\"0.006\"},"
            "\"world\":\"4854cfc7a57b317c\",\"status\":\"ok\","
            "\"transit_bps\":9795879966,\"offload_fraction\":0.991629971,"
            "\"greedy_picked\":4,\"fitted_decay\":0.4,"
            "\"optimal_n\":6.931471806,\"optimal_m\":2.073198387,"
            "\"optimal_direct_fraction\":0.9375,"
            "\"viability_ratio\":2.291666667,\"critical_decay\":0.8292793549,"
            "\"viable\":true,\"cost_without_remote\":0.3886294361,"
            "\"cost_with_remote\":0.3816936264}\n");
}

TEST_F(SweepEngineTest, StaleRecordsAreDetectedAndReexecuted) {
  const std::string& reference = reference_csv();
  const auto dir = root_ / "stale";
  execute_sweep(spec_, dir, options_);
  // Corrupt one record and stamp another with a foreign spec digest: both
  // must read as missing, not as silently-wrong rows.
  const SweepPaths paths(dir);
  std::ofstream(paths.record(3), std::ios::trunc) << "garbage\n";
  std::ofstream(paths.record(7), std::ios::trunc)
      << "rpsweep-record v1 0123456789abcdef 7\nrow\njson\n";
  EXPECT_EQ(paths.completed(spec_digest_hex(spec_), spec_.run_count()), 22u);
  const ExecuteOutcome repaired = execute_sweep(spec_, dir, options_);
  EXPECT_EQ(repaired.executed, 2u);
  EXPECT_EQ(repaired.skipped, 22u);
  summarize_sweep(spec_, dir);
  EXPECT_EQ(read_file(paths.results_csv()), reference);
}

TEST_F(SweepEngineTest, SummarizeNamesTheFirstMissingRun) {
  const auto dir = root_ / "incomplete";
  write_manifest(spec_, dir);
  try {
    summarize_sweep(spec_, dir);
    FAIL() << "summarized an empty sweep";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("run 0"), std::string::npos)
        << error.what();
  }
}

TEST_F(SweepEngineTest, ManifestRoundTripsAndRejectsTampering) {
  const auto dir = root_ / "manifest";
  write_manifest(spec_, dir);
  const SweepSpec loaded = read_manifest(dir);
  EXPECT_EQ(spec_digest_hex(loaded), spec_digest_hex(spec_));
  EXPECT_EQ(loaded.run_count(), spec_.run_count());
  EXPECT_EQ(canonical_spec_text(loaded), canonical_spec_text(spec_));
  // Hand-editing the spec block without refreshing the digest is rejected.
  const auto path = SweepPaths(dir).manifest();
  std::string text = read_file(path);
  const auto at = text.find("econ.h 0.002");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 12, "econ.h 0.003");
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_THROW(read_manifest(dir), std::runtime_error);
  EXPECT_THROW(read_manifest(root_ / "nowhere"), std::runtime_error);
}

TEST_F(SweepEngineTest, ManifestRejectsAMalformedRunCount) {
  const auto dir = root_ / "bad-count";
  write_manifest(spec_, dir);
  const auto path = SweepPaths(dir).manifest();
  std::string text = read_file(path);
  const auto at = text.find("runs 24\n");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 8, "runs 24x\n");
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_THROW(read_manifest(dir), std::runtime_error);
}

TEST_F(SweepEngineTest, ResultsJsonEscapesControlCharactersInTheName) {
  const SweepSpec spec = parse_sweep_spec(
      std::string(kGridSpec) + "name a\x01" "b\n");
  ASSERT_EQ(spec.name, "a\x01" "b");
  const auto dir = root_ / "escaped";
  execute_sweep(spec, dir, options_);
  summarize_sweep(spec, dir);
  const std::string json = read_file(SweepPaths(dir).results_json());
  EXPECT_NE(json.find("\"name\":\"a\\u0001b\""), std::string::npos)
      << json.substr(0, 80);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

// A 3-epoch timeline over the same tiny world as kGridSpec (identical base
// lines, so the snapshot cache is shared): the epoch axis multiplies the
// econ grid on overlay views instead of rebuilding worlds per epoch.
constexpr const char* kEpochSpec =
    "name epoch-grid\n"
    "group 4\n"
    "steps 6\n"
    "days 2\n"
    "timeline-begin\n"
    "name engine-evolve\n"
    "base seed 31\n"
    "base euroix 0\n"
    "base membership_scale 0.05\n"
    "base topology.tier2_count 15\n"
    "base topology.access_count 60\n"
    "base topology.content_count 15\n"
    "base topology.cdn_count 5\n"
    "base topology.nren_count 4\n"
    "base topology.enterprise_count 30\n"
    "epoch start\n"
    "join LINX 3 0.5\n"
    "prices 1.2 0.03 0.15 0.008 0.5\n"
    "epoch surge\n"
    "traffic 1.5\n"
    "join VIX 2 1\n"
    "epoch dark\n"
    "outage LINX\n"
    "timeline-end\n"
    "axis evolve.epoch 0 1 2\n"
    "axis econ.h 0.002 0.01\n";

TEST_F(SweepEngineTest, EpochAxisSweepsTheTimelineOverOneWorld) {
  const SweepSpec spec = parse_sweep_spec(kEpochSpec);
  ASSERT_EQ(spec.run_count(), 6u);
  const auto dir = root_ / "epochs1";
  util::ThreadPool::set_global_threads(1);
  const ExecuteOutcome outcome = execute_sweep(spec, dir, options_);
  EXPECT_EQ(outcome.executed, 6u);
  EXPECT_EQ(outcome.worlds_built, 1u);  // One base world, overlay epochs.
  EXPECT_EQ(summarize_sweep(spec, dir), 6u);
  const std::string reference = read_file(SweepPaths(dir).results_csv());
  EXPECT_NE(reference.find(",ok,"), std::string::npos);
  // The manifest embeds the canonical timeline; reading it back is lossless.
  write_manifest(spec, dir);
  EXPECT_EQ(spec_digest_hex(read_manifest(dir)), spec_digest_hex(spec));
  // The same grid at 8 threads lands on byte-identical results.
  const auto dir8 = root_ / "epochs8";
  util::ThreadPool::set_global_threads(8);
  execute_sweep(spec, dir8, options_);
  summarize_sweep(spec, dir8);
  EXPECT_EQ(read_file(SweepPaths(dir8).results_csv()), reference);
}

// One record of the timeline spec, exactly as a resume reads it back: the
// epoch's overlay study, its traffic scale and its prices under the spec's
// econ.h pin.
TEST_F(SweepEngineTest, EpochRecordBytesArePinned) {
  const SweepSpec spec = parse_sweep_spec(kEpochSpec);
  const auto dir = root_ / "epoch-pinned";
  execute_sweep(spec, dir, options_);
  EXPECT_EQ(read_file(SweepPaths(dir).record(3)),
            "rpsweep-record v1 031f89c1a382fab1 3\n"
            "3,1,0.01,4854cfc7a57b317c,ok,1.469381995e+10,0.991629971,4,"
            "1.658053147,2.449253319,0.4180488315,0.9827680864,2,"
            "0.6931471806,0,0.2415711088,0.2397204274\n"
            "{\"run\":3,\"axes\":{\"evolve.epoch\":\"1\",\"econ.h\":\"0.01\"},"
            "\"world\":\"4854cfc7a57b317c\",\"status\":\"ok\","
            "\"transit_bps\":1.469381995e+10,\"offload_fraction\":0.991629971,"
            "\"greedy_picked\":4,\"fitted_decay\":1.658053147,"
            "\"optimal_n\":2.449253319,\"optimal_m\":0.4180488315,"
            "\"optimal_direct_fraction\":0.9827680864,"
            "\"viability_ratio\":2,\"critical_decay\":0.6931471806,"
            "\"viable\":false,\"cost_without_remote\":0.2415711088,"
            "\"cost_with_remote\":0.2397204274}\n");
}

TEST_F(SweepEngineTest, InvalidPriceCornersAreRecordedNotFatal) {
  // h = 0.025 > g violates ineq. 7: that corner must land in the table as
  // status=invalid-params instead of aborting the sweep.
  SweepSpec spec = parse_sweep_spec(
      std::string(kGridSpec) + "base econ.g 0.02\n");
  spec.axes[1].values.push_back("0.025");
  spec.name = "invalid-corner";
  const auto dir = root_ / "invalid";
  const ExecuteOutcome outcome = execute_sweep(spec, dir, options_);
  EXPECT_EQ(outcome.executed, 30u);
  summarize_sweep(spec, dir);
  const std::string csv = read_file(SweepPaths(dir).results_csv());
  EXPECT_NE(csv.find("invalid-params"), std::string::npos);
  EXPECT_NE(csv.find(",ok,"), std::string::npos);
}

}  // namespace
}  // namespace rp::sweep
