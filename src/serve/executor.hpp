// The query executor: a pure function from (decoded request, resident
// world) to a Response. Split from the daemon so tests can drive every
// request type without sockets, and so responses are trivially deterministic
// — the outcome depends only on the request and the world, never on
// scheduling, which is what makes answers byte-identical at any RP_THREADS
// or client count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "offload/peer_groups.hpp"
#include "serve/protocol.hpp"
#include "serve/world_pool.hpp"

namespace rp::serve {

/// Executes one request against `world` (nullptr for ping/shutdown, which
/// need none). Never throws: failures become Status::kError responses with
/// the exception message.
Response execute_request(const Request& request, const World* world);

/// Which artifacts `request` reads, so the daemon can pre-warm a world on
/// the dispatcher thread (full pool parallelism) before fanning a batch out.
struct ArtifactNeeds {
  bool offload = false;
  std::optional<offload::PeerGroup> curve;  ///< The greedy curve it reads.
  bool spread = false;
};
ArtifactNeeds artifact_needs(const Request& request);

/// Bits of obs::RequestRecord::built: the artifacts a request's dispatch
/// built.
inline constexpr std::uint8_t kBuiltWorld = 1u << 0;
inline constexpr std::uint8_t kBuiltOffload = 1u << 1;
/// The bit of `group`'s curve: bits 2..5 for groups 1..4.
constexpr std::uint8_t built_curve(offload::PeerGroup group) {
  return static_cast<std::uint8_t>(1u << (1 + static_cast<int>(group)));
}
inline constexpr std::uint8_t kBuiltSpread = 1u << 6;

/// `built`'s artifacts comma-joined in build order ("world,offload,curve.4"),
/// or "none".
std::string built_names(std::uint8_t built);

/// Pre-builds the artifacts `request` needs on `world` (no-op for nullptr)
/// and returns the kBuilt* bits of those this call built. Failures are
/// swallowed — execute_request reports them per request.
std::uint8_t prewarm(const Request& request, const World* world);

}  // namespace rp::serve
