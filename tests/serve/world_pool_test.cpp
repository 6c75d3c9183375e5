// WorldPool tests: single-flight loading, LRU eviction under capacity
// pressure, the pool counters, and lazily shared artifacts.
#include "serve/world_pool.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "core/config_fields.hpp"
#include "obs/metrics.hpp"

namespace rp::serve {
namespace {

struct MetricsOn {
  MetricsOn() {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

std::uint64_t counter_value(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::global().snapshot())
    if (m.name == name) return m.count;
  return 0;
}

core::ScenarioConfig fast_config(std::uint64_t seed) {
  core::ScenarioConfig config;
  core::apply_fast_mode(config);
  config.seed = seed;
  return config;
}

std::filesystem::path fresh_cache_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("rp_world_pool_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(WorldPool, SingleFlightBuildsOnceUnderContention) {
  MetricsOn on;
  WorldPool pool(4, fresh_cache_dir("singleflight"));
  const core::ScenarioConfig config = fast_config(2014);

  std::vector<std::shared_ptr<const World>> worlds(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t)
    threads.emplace_back(
        [&pool, &config, &worlds, t] { worlds[t] = pool.acquire(config); });
  for (auto& thread : threads) thread.join();

  // Everyone got the same resident instance: one build, one miss.
  for (std::size_t t = 1; t < 8; ++t) EXPECT_EQ(worlds[t], worlds[0]);
  EXPECT_EQ(pool.resident(), 1u);
  EXPECT_EQ(counter_value("rp.serve.pool.misses"), 1u);
  // Every non-builder acquire resolves through the ready branch — 7 hits,
  // however many single-flight waits scheduling produced along the way.
  EXPECT_EQ(counter_value("rp.serve.pool.hits"), 7u);
  EXPECT_EQ(counter_value("rp.serve.pool.evictions"), 0u);
}

TEST(WorldPool, SameConfigHitsLaterAcquires) {
  MetricsOn on;
  WorldPool pool(2, fresh_cache_dir("hits"));
  const core::ScenarioConfig config = fast_config(7);
  const auto first = pool.acquire(config);
  const auto second = pool.acquire(config);
  EXPECT_EQ(first, second);
  EXPECT_EQ(counter_value("rp.serve.pool.misses"), 1u);
  EXPECT_EQ(counter_value("rp.serve.pool.hits"), 1u);
}

TEST(WorldPool, EvictsLeastRecentlyUsedOverCapacity) {
  MetricsOn on;
  WorldPool pool(2, fresh_cache_dir("lru"));
  const core::ScenarioConfig a = fast_config(1);
  const core::ScenarioConfig b = fast_config(2);
  const core::ScenarioConfig c = fast_config(3);

  const auto world_a = pool.acquire(a);
  const auto world_b = pool.acquire(b);
  EXPECT_EQ(pool.resident(), 2u);

  // Touch a so b becomes the least recently used, then overflow with c.
  pool.acquire(a);
  pool.acquire(c);
  EXPECT_EQ(pool.resident(), 2u);
  EXPECT_EQ(counter_value("rp.serve.pool.evictions"), 1u);

  // a stayed resident (a hit, not a rebuild); b was evicted (a fresh miss).
  const std::uint64_t misses_before =
      counter_value("rp.serve.pool.misses");
  pool.acquire(a);
  EXPECT_EQ(counter_value("rp.serve.pool.misses"), misses_before);
  pool.acquire(b);
  EXPECT_EQ(counter_value("rp.serve.pool.misses"), misses_before + 1);

  // Eviction dropped only the pool's reference: our handle still works.
  EXPECT_GT(world_b->scenario().graph().as_count(), 0u);
}

TEST(WorldPool, CapacityFloorsAtOne) {
  WorldPool pool(0, fresh_cache_dir("floor"));
  EXPECT_EQ(pool.capacity(), 1u);
  const auto world = pool.acquire(fast_config(5));
  ASSERT_NE(world, nullptr);
  EXPECT_EQ(pool.resident(), 1u);
}

TEST(WorldPool, LazyArtifactsBuildOnceAndAreShared) {
  WorldPool pool(1, fresh_cache_dir("lazy"));
  const auto world = pool.acquire(fast_config(11));
  const auto* study = &world->offload();
  EXPECT_EQ(study, &world->offload());  // Second call reuses the artifact.
  for (const auto group :
       {offload::PeerGroup::kOpen, offload::PeerGroup::kOpenTop10Selective,
        offload::PeerGroup::kOpenSelective, offload::PeerGroup::kAll}) {
    const auto& curve = world->curve(group);
    EXPECT_EQ(&curve, &world->curve(group));
    EXPECT_FALSE(curve.empty());
  }
  // One curve per group: no two groups share a slot.
  EXPECT_NE(&world->curve(offload::PeerGroup::kOpen),
            &world->curve(offload::PeerGroup::kAll));
  const auto* spread = &world->spread();
  EXPECT_EQ(spread, &world->spread());
}

}  // namespace
}  // namespace rp::serve
