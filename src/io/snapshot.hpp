// Versioned binary world snapshots: save/load a whole core::Scenario through
// the rp-snapshot container.
//
// A Scenario is fully determined by its config + seed, so a snapshot is a
// cache, not a source of truth — but construction at paper scale is costly
// while loading is mostly memcpy, and a snapshot file can be shared across
// processes (the prerequisite for sharded studies). Loads are byte-identical
// to the world that was saved: node order, adjacency order and interface
// order all survive exactly, so SpreadStudy / OffloadAnalyzer outputs match a
// fresh build bit-for-bit at any RP_THREADS. Derived state (the customer-cone
// memo, the vantage RIB) is not persisted; it is rebuilt lazily on first use,
// as for any freshly built world.
//
// Sections (see container.hpp for the envelope):
//   kConfigSection     ScenarioConfig (every knob, varint/f64-bit packed)
//   kNodesSection      AsNode list (asn, name, class, policy, city, prefixes)
//   kEdgesSection      per-node adjacency (providers/customers/peers) as
//                      node-index varints, preserving insertion order
//   kEcosystemSection  remote-peering providers + IXPs with interfaces & LGs
//   kVantageSection    vantage ASN + measured-IXP ids
// The decoder ignores any other section id, so images that carry extra
// sections (older writers embedded the cone memo and RIB as ids 6 and 7)
// still load.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "io/container.hpp"

namespace rp::io {

inline constexpr std::uint32_t kConfigSection = 1;
inline constexpr std::uint32_t kNodesSection = 2;
inline constexpr std::uint32_t kEdgesSection = 3;
inline constexpr std::uint32_t kEcosystemSection = 4;
inline constexpr std::uint32_t kVantageSection = 5;

/// Human-readable section name for CLI output ("?" for unknown ids).
const char* section_name(std::uint32_t id);

/// Encodes a world view into a full container image. Section payloads are
/// encoded in parallel across rp::util::ThreadPool::global(); the bytes are
/// identical at any thread count. Epoch overlays (src/evolve) encode through
/// this entry point without materializing a Scenario copy.
std::vector<std::uint8_t> encode_scenario(const core::WorldView& world);

inline std::vector<std::uint8_t> encode_scenario(
    const core::Scenario& scenario) {
  return encode_scenario(scenario.view());
}

/// encode_scenario + atomic file write (temp file, then rename).
void save_scenario(const core::WorldView& world,
                   const std::filesystem::path& path);

inline void save_scenario(const core::Scenario& scenario,
                          const std::filesystem::path& path) {
  save_scenario(scenario.view(), path);
}

/// Decodes a container image. Throws SnapshotError on any corruption,
/// truncation, version mismatch, or cross-section inconsistency — a failed
/// load never returns a partially populated world.
core::Scenario decode_scenario(std::span<const std::uint8_t> bytes);

/// Reads, verifies, and decodes a snapshot file.
core::Scenario load_scenario(const std::filesystem::path& path);

/// The cache key: FNV-1a over the canonical kConfigSection encoding of the
/// config, so any knob change (including nested topology knobs and the seed)
/// yields a different key.
std::uint64_t config_digest(const core::ScenarioConfig& config);
std::string config_digest_hex(const core::ScenarioConfig& config);

/// The cache file for a config: `<dir>/world-<digest16>.rpsnap`.
std::filesystem::path cache_path(const core::ScenarioConfig& config,
                                 const std::filesystem::path& cache_dir);

/// The default snapshot cache directory: $RP_SNAPSHOT_CACHE when set,
/// otherwise ".rpsnap-cache" under the current working directory.
std::filesystem::path default_cache_dir();

/// Summary of a snapshot file, for `rpworld info` / `rpworld diff`.
struct SnapshotInfo {
  std::uint32_t format_version = 0;
  std::uint64_t file_size = 0;
  std::vector<SectionEntry> sections;
  std::uint64_t config_digest = 0;
  std::uint64_t seed = 0;
  std::size_t as_count = 0;
  std::size_t transit_links = 0;
  std::size_t peering_links = 0;
  std::size_t ixp_count = 0;
  std::size_t provider_count = 0;
  std::size_t interface_count = 0;
  std::size_t measured_ixp_count = 0;
  std::uint32_t vantage_asn = 0;
};

/// Fully decodes `path` and summarizes it (so a successful info implies a
/// loadable snapshot). Throws SnapshotError like load_scenario.
SnapshotInfo snapshot_info(const std::filesystem::path& path);

/// Why verification rejected a snapshot: the message plus the failure class
/// (whose enumerator value is the documented rpworld exit code).
struct VerifyFailure {
  std::string message;
  SnapshotErrorClass error_class = SnapshotErrorClass::kCorrupt;

  int exit_code() const { return static_cast<int>(error_class); }
};

/// Deep verification: load the snapshot and run the graph's structural
/// validation on top of the checksum/decode checks. Returns the classified
/// failure, or nullopt when the snapshot is sound.
std::optional<VerifyFailure> verify_snapshot(const std::filesystem::path& path);

}  // namespace rp::io
