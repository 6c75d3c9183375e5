#include "serve/world_pool.hpp"

#include <algorithm>
#include <cstdint>

#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::serve {

namespace {
obs::Counter& pool_hits() {
  static obs::Counter c("rp.serve.pool.hits");
  return c;
}
obs::Counter& pool_misses() {
  static obs::Counter c("rp.serve.pool.misses");
  return c;
}
obs::Counter& pool_waits() {
  static obs::Counter c("rp.serve.pool.waits",
                        obs::Stability::kScheduling);
  return c;
}
obs::Counter& pool_evictions() {
  static obs::Counter c("rp.serve.pool.evictions");
  return c;
}
obs::Gauge& pool_resident() {
  static obs::Gauge g("rp.serve.pool.resident");
  return g;
}
}  // namespace

World::World(core::Scenario scenario, std::uint64_t digest,
             core::SnapshotCacheResult cache_result)
    : scenario_(std::move(scenario)),
      digest_(digest),
      cache_result_(std::move(cache_result)) {
  // The snapshot file is the footprint proxy for the deserialized scenario;
  // a missing file (pure in-memory build) just leaves the estimate at the
  // artifact terms.
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(cache_result_.path, ec);
  if (!ec) snapshot_bytes_ = static_cast<std::size_t>(bytes);
}

std::size_t World::resident_bytes() const {
  std::size_t bytes = snapshot_bytes_;
  if (offload_.peek()) bytes += sizeof(core::OffloadStudy);
  for (const auto& slot : curves_)
    if (const auto* curve = slot.peek())
      bytes += sizeof(*curve) + curve->capacity() * sizeof(offload::GreedyStep);
  if (spread_.peek()) bytes += sizeof(core::SpreadStudy);
  return bytes;
}

const core::OffloadStudy& World::offload(bool* built) const {
  return offload_.get_or_build(
      build_mutex_,
      [this] {
        obs::Span span("serve.world.offload_study");
        return core::OffloadStudy::run(scenario_);
      },
      built);
}

const std::vector<offload::GreedyStep>& World::curve(offload::PeerGroup group,
                                                     bool* built) const {
  const core::OffloadStudy& study = offload();
  // SIZE_MAX is only the loop bound: the greedy stops on its own once every
  // IXP is used or none gains, however many IXPs the world has.
  return curves_.at(static_cast<std::size_t>(group) - 1)
      .get_or_build(
          build_mutex_,
          [&study, group] {
            obs::Span span("serve.world.curve");
            return study.analyzer().greedy_by_traffic(group, SIZE_MAX);
          },
          built);
}

const core::SpreadStudy& World::spread(bool* built) const {
  return spread_.get_or_build(
      build_mutex_,
      [this] {
        obs::Span span("serve.world.spread_study");
        return core::SpreadStudy::run(scenario_);
      },
      built);
}

WorldPool::WorldPool(std::size_t capacity, std::filesystem::path cache_dir)
    : capacity_(std::max<std::size_t>(1, capacity)),
      cache_dir_(std::move(cache_dir)) {}

std::shared_ptr<const World> WorldPool::acquire(
    const core::ScenarioConfig& config, bool* loaded) {
  if (loaded) *loaded = false;
  const std::uint64_t digest = io::config_digest(config);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = slots_.find(digest);
    if (it == slots_.end()) break;
    Slot& slot = *it->second;
    if (slot.ready) {
      slot.last_used = ++use_clock_;
      ++slot.hits;
      pool_hits().add();
      return slot.world;
    }
    // Another thread is loading this digest: join its flight. The slot can
    // be gone when we wake (the load failed) — then the loop falls through
    // to a fresh load attempt of our own.
    pool_waits().add();
    ready_cv_.wait(lock);
  }

  auto slot = std::make_shared<Slot>();
  slots_.emplace(digest, slot);
  pool_misses().add();
  lock.unlock();

  std::shared_ptr<const World> world;
  try {
    obs::Span span("serve.world.load");
    core::SnapshotCacheResult cache;
    core::Scenario scenario =
        core::Scenario::build_cached(config, cache_dir_, &cache);
    world = std::make_shared<World>(std::move(scenario), digest,
                                    std::move(cache));
  } catch (...) {
    lock.lock();
    slots_.erase(digest);
    ready_cv_.notify_all();
    throw;
  }

  lock.lock();
  slot->world = world;
  slot->ready = true;
  slot->last_used = ++use_clock_;
  evict_over_capacity_locked();
  pool_resident().set(static_cast<double>(slots_.size()));
  ready_cv_.notify_all();
  if (loaded) *loaded = true;
  return world;
}

std::vector<WorldPool::EntryStats> WorldPool::entry_stats() const {
  std::vector<EntryStats> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(slots_.size());
  for (const auto& [digest, slot] : slots_) {
    EntryStats entry;
    entry.digest = digest;
    entry.hits = slot->hits;
    entry.last_used = slot->last_used;
    entry.ready = slot->ready;
    entry.resident_bytes = slot->ready ? slot->world->resident_bytes() : 0;
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(), [](const EntryStats& a,
                                       const EntryStats& b) {
    if (a.last_used != b.last_used) return a.last_used > b.last_used;
    return a.digest < b.digest;
  });
  return out;
}

std::size_t WorldPool::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t ready = 0;
  for (const auto& [digest, slot] : slots_)
    if (slot->ready) ++ready;
  return ready;
}

void WorldPool::evict_over_capacity_locked() {
  for (;;) {
    std::size_t ready = 0;
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (!it->second->ready) continue;  // In-flight loads are not evictable.
      ++ready;
      if (victim == slots_.end() ||
          it->second->last_used < victim->second->last_used)
        victim = it;
    }
    if (ready <= capacity_ || victim == slots_.end()) return;
    slots_.erase(victim);
    pool_evictions().add();
  }
}

}  // namespace rp::serve
