#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/config_fields.hpp"
#include "io/snapshot.hpp"

namespace rp::bench {

bool fast_mode() {
  const char* value = std::getenv("RP_BENCH_FAST");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

core::ScenarioConfig scenario_config() {
  core::ScenarioConfig config;
  config.seed = 2014;  // The paper's year; any seed reproduces bit-for-bit.
  config.euroix = true;
  if (fast_mode()) core::apply_fast_mode(config);
  return config;
}

const core::Scenario& scenario() {
  static const core::Scenario world = [] {
    core::SnapshotCacheResult cache;
    core::Scenario built = core::Scenario::build_cached(
        scenario_config(), io::default_cache_dir(), &cache);
    std::fprintf(stderr, "[bench] %s %s scenario (%s)\n",
                 cache.outcome == core::SnapshotCacheResult::Outcome::kHit
                     ? "loaded snapshot of"
                     : "built",
                 fast_mode() ? "fast" : "paper-scale",
                 cache.path.string().c_str());
    return built;
  }();
  return world;
}

const core::SpreadStudy& spread_study() {
  static const core::SpreadStudy study = [] {
    core::SpreadStudyConfig config;
    // Collect the §3.3 route-server cross-check everywhere (the paper had
    // it only at TorIX; the simulator gives it to us for free).
    config.campaign.route_server_crosscheck = true;
    if (fast_mode()) {
      config.campaign.length = util::SimDuration::days(7);
      config.campaign.queries_per_pch_lg = 4;
      config.campaign.queries_per_ripe_lg = 3;
    }
    std::fprintf(stderr, "[bench] running measurement campaigns at %zu IXPs...\n",
                 scenario().measured_ixps().size());
    return core::SpreadStudy::run(scenario(), config);
  }();
  return study;
}

const core::OffloadStudy& offload_study() {
  static const core::OffloadStudy study = [] {
    core::OffloadStudyConfig config;
    if (fast_mode()) config.rate_model.span = util::SimDuration::days(7);
    std::fprintf(stderr, "[bench] building traffic matrix, RIB, and offload "
                         "analyzer...\n");
    return core::OffloadStudy::run(scenario(), config);
  }();
  return study;
}

void print_header(const std::string& artefact,
                  const std::string& paper_note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("paper: %s\n", paper_note.c_str());
  std::printf("==============================================================\n");
}

bool write_bench_json(const std::string& name,
                      const std::vector<obs::json::Entry>& entries) {
  std::string dir = ".";
  if (const char* env = std::getenv("RP_BENCH_JSON_DIR");
      env != nullptr && env[0] != '\0')
    dir = env;
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (os) obs::json::write_flat_object(os, entries);
  if (!os) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  return true;
}

}  // namespace rp::bench
