// rpstat — run the full pipeline once with metrics enabled and report what
// the instrumentation saw: one command that exercises every instrumented
// layer (core scenario build/cache, thread pool, BGP RIB, measurement
// campaign, offload analysis, snapshot io) and prints the counter table.
//
//   rpstat [--fast] [--seed N] [--scale F] [--json FILE] [--trace FILE]
//
// --json writes the same snapshot as a flat JSON object (CI validates it
// with `python3 -m json.tool`); --trace writes a Chrome/Perfetto trace of
// the phase spans. Metrics are always enabled here — that is the point.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/config_fields.hpp"
#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/spread_study.hpp"
#include "io/snapshot.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rp;

int usage() {
  std::fprintf(stderr,
               "usage: rpstat [--fast] [--seed N] [--scale F]"
               " [--json FILE] [--trace FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::uint64_t seed = 7;
  double scale = 0.15;
  std::string json_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpstat: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fast") fast = true;
    else if (arg == "--seed") seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--scale") scale = std::strtod(value(), nullptr);
    else if (arg == "--json") json_path = value();
    else if (arg == "--trace") trace_path = value();
    else return usage();
  }

  obs::set_metrics_enabled(true);
  if (!trace_path.empty() && !obs::start_trace(trace_path)) {
    obs::stop_trace();  // RP_TRACE opened a session; the flag wins.
    obs::start_trace(trace_path);
  }

  core::ScenarioConfig config;
  config.seed = seed;
  config.euroix = false;
  config.membership_scale = scale;
  config.topology.tier2_count = 40;
  config.topology.access_count = 200;
  config.topology.content_count = 60;
  config.topology.cdn_count = 10;
  config.topology.nren_count = 8;
  config.topology.enterprise_count = 150;
  if (fast) core::apply_fast_mode(config);

  core::SnapshotCacheResult cache;
  const core::Scenario scenario =
      core::Scenario::build_cached(config, io::default_cache_dir(), &cache);
  std::printf("world: %zu ASes, %zu IXPs (%s)\n",
              scenario.graph().as_count(),
              scenario.ecosystem().ixps().size(),
              cache.outcome == core::SnapshotCacheResult::Outcome::kHit
                  ? "snapshot cache hit"
                  : "built");

  // Explicit snapshot round-trip so both the write and the read side of
  // rp.io show up even on a cache hit.
  const std::filesystem::path roundtrip =
      std::filesystem::temp_directory_path() /
      ("rpstat-" + io::config_digest_hex(config) + ".rpsnap");
  io::save_scenario(scenario, roundtrip);
  const core::Scenario loaded = io::load_scenario(roundtrip);
  std::filesystem::remove(roundtrip);
  std::printf("snapshot round-trip: %zu ASes preserved\n",
              loaded.graph().as_count());

  core::SpreadStudyConfig study_config;
  study_config.campaign.length = util::SimDuration::days(fast ? 2 : 7);
  study_config.campaign.queries_per_pch_lg = fast ? 2 : 4;
  study_config.campaign.queries_per_ripe_lg = fast ? 2 : 3;
  const core::SpreadStudy study =
      core::SpreadStudy::run(scenario, study_config);
  std::printf("spread study: %zu probed, %zu analyzed\n",
              study.report().total_probed(), study.report().total_analyzed());

  core::OffloadStudyConfig offload_config;
  offload_config.rate_model.span = util::SimDuration::days(fast ? 3 : 14);
  const core::OffloadStudy offload =
      core::OffloadStudy::run(scenario, offload_config);
  const auto steps =
      offload.analyzer().greedy_by_traffic(offload::PeerGroup::kAll, 4);
  std::printf("offload: %zu eligible peers, greedy picked %zu IXPs\n\n",
              offload.analyzer().eligible_peers().size(), steps.size());

  if (!obs::dump_global_metrics(std::cout, json_path)) {
    std::fprintf(stderr, "rpstat: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!json_path.empty())
    std::fprintf(stderr, "metrics json: %s\n", json_path.c_str());
  if (!trace_path.empty()) {
    const std::size_t events = obs::stop_trace();
    std::fprintf(stderr, "trace: wrote %zu events to %s\n", events,
                 trace_path.c_str());
  }
  return 0;
}
