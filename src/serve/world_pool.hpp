// WorldPool — the daemon's warm-world residency layer.
//
// A World is a resident core::Scenario plus the study artifacts queries
// need, each computed at most once per residency and cached for the world's
// lifetime: the §4 offload study, one traffic-greedy curve per peer group,
// and the §3 spread study. Each curve runs until no IXP gains, and every
// offload-curve and viability answer reads a prefix of it — the greedy is
// prefix-closed, so its first k steps are greedy_by_traffic(group, k). The
// pool keys worlds by their config digest (io::config_digest),
// keeps at most `capacity` of them resident with LRU eviction, and
// single-flights loading: concurrent acquires of the same digest share one
// Scenario::build_cached call — the builders' snapshot cache does the
// cross-process caching, the pool does the in-process residency.
//
// Eviction drops the pool's reference only; in-flight requests keep evicted
// worlds alive through their shared_ptr until they finish.
//
// Counters: rp.serve.pool.hits / .misses / .waits (acquires that joined an
// in-flight load) / .evictions, plus the rp.serve.pool.resident gauge.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/spread_study.hpp"

namespace rp::serve {

/// A lazily built, never replaced artifact. The first get_or_build() builds
/// it under the caller's build mutex and publishes it through an atomic
/// pointer; every later read — including peek() from the stats surface while
/// another artifact is being built — loads that pointer without locking.
template <typename T>
class Published {
 public:
  Published() = default;
  ~Published() { delete ptr_.load(); }
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  /// The artifact if it is built, else nullptr. Never blocks.
  const T* peek() const { return ptr_.load(); }

  /// Sets `*built_here` (when given) to whether this call ran the build.
  template <typename Build>
  const T& get_or_build(std::mutex& build_mutex, Build&& build,
                        bool* built_here = nullptr) {
    if (built_here) *built_here = false;
    if (T* built = ptr_.load()) return *built;
    std::lock_guard<std::mutex> lock(build_mutex);
    if (T* built = ptr_.load()) return *built;
    T* built = new T(build());
    ptr_.store(built);
    if (built_here) *built_here = true;
    return *built;
  }

 private:
  std::atomic<T*> ptr_{nullptr};
};

/// A resident world. The scenario is immutable; the study accessors build
/// lazily (single-flight via the build mutex) and cache for the lifetime of
/// the residency. Each accessor sets `*built` (when given) to whether that
/// call ran the build. Thread-safe.
class World {
 public:
  World(core::Scenario scenario, std::uint64_t digest,
        core::SnapshotCacheResult cache_result);

  const core::Scenario& scenario() const { return scenario_; }
  std::uint64_t digest() const { return digest_; }
  const core::SnapshotCacheResult& cache_result() const {
    return cache_result_;
  }

  /// The §4 study (traffic matrix, RIB, offload analyzer). Built on first
  /// call; later callers block until it is ready, then share it.
  const core::OffloadStudy& offload(bool* built = nullptr) const;

  /// The traffic-greedy expansion (Fig. 9) for `group`, run until every IXP
  /// is used or none gains. Offload-curve answers read a prefix of it; the
  /// viability fit reads the first 20 steps of the kAll curve.
  const std::vector<offload::GreedyStep>& curve(offload::PeerGroup group,
                                                bool* built = nullptr) const;

  /// The §3 study (campaigns + filters + classification).
  const core::SpreadStudy& spread(bool* built = nullptr) const;

  /// Lower-bound estimate of this residency's memory footprint: the world's
  /// snapshot-file size (a good proxy for the deserialized scenario) plus
  /// the directly measurable footprint of each artifact built so far. Used
  /// by the stats surface; not an allocator-exact number. Never waits on an
  /// artifact build.
  std::size_t resident_bytes() const;

 private:
  core::Scenario scenario_;
  std::uint64_t digest_;
  core::SnapshotCacheResult cache_result_;
  std::size_t snapshot_bytes_ = 0;

  /// Serializes the study builds; readers of a built study never take it.
  mutable std::mutex build_mutex_;
  mutable Published<core::OffloadStudy> offload_;
  /// One curve per peer group, indexed by group - 1.
  mutable std::array<Published<std::vector<offload::GreedyStep>>, 4> curves_;
  mutable Published<core::SpreadStudy> spread_;
};

class WorldPool {
 public:
  /// `capacity` >= 1 resident worlds; scenarios build through
  /// Scenario::build_cached against `cache_dir`.
  WorldPool(std::size_t capacity, std::filesystem::path cache_dir);

  /// Returns the resident world for `config`, loading it if necessary, and
  /// sets `*loaded` (when given) to whether this call ran the load.
  /// Concurrent acquires of one digest share a single build (single-flight);
  /// a failed build propagates to the acquire that ran it, while waiters
  /// retry. May evict the least-recently-used resident world.
  std::shared_ptr<const World> acquire(const core::ScenarioConfig& config,
                                       bool* loaded = nullptr);

  std::size_t capacity() const { return capacity_; }
  /// Currently resident (ready) worlds.
  std::size_t resident() const;
  const std::filesystem::path& cache_dir() const { return cache_dir_; }

  /// Per-entry accounting for the stats surface.
  struct EntryStats {
    std::uint64_t digest = 0;
    std::uint64_t hits = 0;       ///< Acquires served from residency.
    std::uint64_t last_used = 0;  ///< Pool use-clock tick (higher = fresher).
    bool ready = false;           ///< False while the load is in flight.
    std::size_t resident_bytes = 0;  ///< World::resident_bytes (0 in flight).
  };

  /// One EntryStats per slot (resident or in flight), most recently used
  /// first; ties (never expected — the use clock is unique) break by digest.
  std::vector<EntryStats> entry_stats() const;

 private:
  struct Slot {
    std::shared_ptr<const World> world;  ///< Set when ready.
    bool ready = false;
    std::uint64_t last_used = 0;
    std::uint64_t hits = 0;
  };

  void evict_over_capacity_locked();

  std::size_t capacity_;
  std::filesystem::path cache_dir_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> slots_;
  std::uint64_t use_clock_ = 0;
};

}  // namespace rp::serve
