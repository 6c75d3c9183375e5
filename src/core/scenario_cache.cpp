// Scenario::build_cached — the config-keyed snapshot cache on top of rp::io.
//
// The world is fully determined by its config (including the seed), so the
// cache key is a digest of the canonical config encoding and a hit can be
// trusted byte-for-byte once the container checksums pass. Any rejection —
// corrupt file, truncation, future format version, injected fault, or a
// digest that does not match the requested config after decode — falls back
// to a clean rebuild and recaches atomically, so a bad snapshot can delay a
// run but never corrupt it. Fallbacks are visible as rp.io.fallbacks (and
// rp.core.cache.fallbacks); the fault sites cache.load / cache.store inject
// failure at the cache boundary itself, on top of whatever the io.* sites do
// deeper down.
#include <exception>

#include "core/scenario.hpp"
#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::core {

namespace {
obs::Counter& cache_counter(SnapshotCacheResult::Outcome outcome) {
  static obs::Counter hits("rp.core.cache.hits");
  static obs::Counter misses("rp.core.cache.misses");
  static obs::Counter fallbacks("rp.core.cache.fallbacks");
  switch (outcome) {
    case SnapshotCacheResult::Outcome::kHit:
      return hits;
    case SnapshotCacheResult::Outcome::kFallback:
      return fallbacks;
    case SnapshotCacheResult::Outcome::kMiss:
      break;
  }
  return misses;
}
}  // namespace

Scenario Scenario::build_cached(const ScenarioConfig& config,
                                const std::filesystem::path& cache_dir,
                                SnapshotCacheResult* result) {
  obs::Span span("core.scenario.build_cached");
  static fault::Site load_site(fault::kSiteCacheLoad);
  static fault::Site store_site(fault::kSiteCacheStore);
  SnapshotCacheResult local;
  SnapshotCacheResult& out = result != nullptr ? *result : local;
  out = SnapshotCacheResult{};
  out.path = io::cache_path(config, cache_dir);

  std::error_code ec;
  if (std::filesystem::exists(out.path, ec)) {
    try {
      load_site.maybe_throw();
      Scenario world = io::load_scenario(out.path);
      if (io::config_digest(world.config()) == io::config_digest(config)) {
        out.outcome = SnapshotCacheResult::Outcome::kHit;
        cache_counter(out.outcome).add();
        return world;
      }
      // A digest collision in the file name (or a hand-renamed file): the
      // snapshot is valid but describes a different world.
      out.message = "snapshot describes a different config";
    } catch (const std::exception& e) {
      out.message = e.what();
    }
    out.outcome = SnapshotCacheResult::Outcome::kFallback;
    // The io-layer degradation counter CI asserts on: a snapshot that failed
    // to load was absorbed by a clean rebuild, not propagated.
    static obs::Counter io_fallbacks("rp.io.fallbacks");
    io_fallbacks.add();
  }

  cache_counter(out.outcome).add();
  Scenario scenario = build(config);
  // Cache-write failures (read-only dir, disk full, injected fault) must not
  // fail the build; the next run just misses again.
  try {
    store_site.maybe_throw();
    std::filesystem::create_directories(cache_dir);
    io::save_scenario(scenario, out.path);
  } catch (const std::exception& e) {
    if (out.message.empty()) out.message = e.what();
  }
  return scenario;
}

}  // namespace rp::core
