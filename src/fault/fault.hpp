// rp::fault — deterministic fault injection for the hot layers.
//
// Named injection sites are compiled into the code paths that must degrade
// gracefully under failure: snapshot read/write and checksum verification
// (src/io), the scenario cache (src/core/scenario_cache.cpp), thread-pool
// task execution (src/util/thread_pool), dataset parsing and campaign probe
// execution (src/measure), event scheduling in the discrete-event
// engine (src/sim/simulator), and bin delivery in the streaming ingest
// (src/stream). A site costs one predictable branch when the
// framework is disarmed — the same discipline as rp::obs — so the sites can
// stay in release builds and the greedy benchmark does not move.
//
// Sites are armed from the environment,
//
//   RP_FAULT=<site>:<spec>[,<site>:<spec>...]
//
// or programmatically with arm() (tests). The spec grammar:
//
//   spec    := trigger [action]
//   trigger := "nth=" N          fire on the Nth call to the site (1-based,
//                                exactly once)
//            | "every=" K        fire on every Kth call (K, 2K, 3K, ...)
//            | "p=" P "@seed=" S fire each call with probability P, decided
//                                by a hash of (S, call-index) — the seed is
//                                mandatory so a run replays byte-identically
//   action  := "+throw"          throw InjectedFault (the default)
//            | "+flip"           flip one deterministic payload bit
//            | "+truncate"       drop the payload's tail
//
// e.g. RP_FAULT=io.read:nth=1  RP_FAULT=io.write:every=3+truncate
//      RP_FAULT=pool.task:p=0.25@seed=42
//
// The corruption actions only make sense at sites that own a byte payload
// (io.read / io.write, via Site::maybe_corrupt); everywhere else an armed
// corruption action degenerates to a throw.
//
// Determinism: every decision is a pure function of (spec, per-site call
// index). Arming a site resets its call counter, so a test that re-arms the
// same spec replays the identical failure sequence. Call indices are claimed
// with an atomic counter, so under concurrency the *pattern* of firing calls
// is fixed even when the mapping of calls to work items depends on the
// schedule (document RP_THREADS alongside RP_FAULT to reproduce a run
// exactly).
//
// Observability: every fire increments rp.fault.fires plus a per-site
// rp.fault.fires.<site> counter (when metrics are enabled), so an injected
// failure is visible in the same exports as the degradation counters of the
// layer that absorbed it (rp.io.fallbacks, rp.measure.probes.dropped, ...).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rp::fault {

/// Thrown by an armed site (and by payload sites whose action is a throw).
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(const std::string& site, std::uint64_t call);

  /// The site that fired, e.g. "io.read".
  const std::string& site() const { return site_; }
  /// The 1-based call index that fired.
  std::uint64_t call() const { return call_; }

 private:
  std::string site_;
  std::uint64_t call_;
};

/// When an armed site fires.
enum class Trigger : std::uint8_t { kNth, kEvery, kProbability };

/// What a firing site does.
enum class Action : std::uint8_t { kThrow, kBitFlip, kTruncate };

/// A parsed "<trigger>[+action]" spec.
struct Spec {
  Trigger trigger = Trigger::kNth;
  /// N for nth=, K for every= (always >= 1).
  std::uint64_t n = 1;
  /// Fire probability for p= (in [0, 1]).
  double probability = 0.0;
  /// Mandatory seed for p= specs.
  std::uint64_t seed = 0;
  Action action = Action::kThrow;
};

/// Parses a bare spec ("nth=3+flip"); throws std::invalid_argument with a
/// message quoting the offending token on any grammar violation.
Spec parse_spec(std::string_view text);

namespace detail {

extern std::atomic<bool> g_any_armed;

struct SiteState;

/// Registers (or looks up) a site by name and returns its state block.
/// The same name always maps to the same state, so one logical site may be
/// referenced from several code locations.
SiteState* register_site(const char* name);

/// Counts one call against `state`'s armed spec; returns the action when
/// this call fires. Only called while g_any_armed is true.
std::optional<Action> site_fire(SiteState* state);

[[noreturn]] void throw_injected(SiteState* state);

/// Applies `action` to `bytes` deterministically (keyed by the firing call
/// index): kBitFlip flips one bit, kTruncate drops the tail, kThrow throws.
void corrupt_payload(SiteState* state, Action action,
                     std::vector<std::uint8_t>& bytes);

}  // namespace detail

/// True when at least one site is armed — the hot-path gate.
inline bool injection_enabled() {
  return detail::g_any_armed.load(std::memory_order_relaxed);
}

/// A named injection site. Construct once (function-local static) per
/// location; construction registers the name in the global registry.
class Site {
 public:
  explicit Site(const char* name) : state_(detail::register_site(name)) {}

  /// Counts a call when anything is armed and returns the action to perform
  /// when this call fires. One branch when the framework is disarmed.
  std::optional<Action> fire() {
    if (!injection_enabled()) return std::nullopt;
    return detail::site_fire(state_);
  }

  /// fire(), throwing InjectedFault on any hit (sites without a payload
  /// treat every action as a throw).
  void maybe_throw() {
    if (!injection_enabled()) return;
    if (detail::site_fire(state_)) detail::throw_injected(state_);
  }

  /// fire(), applying the armed action to `bytes` on a hit: a throw action
  /// raises InjectedFault; flip/truncate mutate the payload in place (the
  /// caller then proceeds with the corrupt bytes, exercising its checksum
  /// and fallback paths).
  void maybe_corrupt(std::vector<std::uint8_t>& bytes) {
    if (!injection_enabled()) return;
    if (auto action = detail::site_fire(state_))
      detail::corrupt_payload(state_, *action, bytes);
  }

  /// Applies an action already returned by fire() to a payload. Lets a call
  /// site separate the decision from the effect (io.write decides first,
  /// then stages the corruption or simulates a mid-write crash).
  void apply(Action action, std::vector<std::uint8_t>& bytes) {
    detail::corrupt_payload(state_, action, bytes);
  }

  /// Throws this site's InjectedFault unconditionally (for call sites that
  /// deliver a previously fired throw action at a specific point).
  [[noreturn]] void raise() { detail::throw_injected(state_); }

 private:
  detail::SiteState* state_;
};

/// Arms sites from a comma-separated directive list "<site>:<spec>[,...]".
/// Arming a site replaces any previous spec and resets its call counter (so
/// re-arming replays the same failure sequence). Unknown site names are
/// accepted and latched — the spec attaches when the site registers.
/// Throws std::invalid_argument on malformed directives.
void arm(const std::string& directives);

/// Disarms every site and clears pending (not-yet-registered) specs. Call
/// counters are reset; already-thrown faults are unaffected.
void disarm_all();

/// Parses RP_FAULT once per process (idempotent; the first Site registration
/// triggers it too). A malformed RP_FAULT aborts with a message on stderr —
/// silently ignoring a typo'd directive would fake a green fault run.
void arm_from_env();

/// One site's registry entry, for tests and CLI dumps.
struct SiteStatus {
  std::string name;
  bool armed = false;
  std::uint64_t calls = 0;  ///< Calls counted since the site was last armed.
  std::uint64_t fires = 0;  ///< Faults delivered since the site was last armed.
};

/// Every registered site, sorted by name.
std::vector<SiteStatus> site_status();

/// The canonical site names compiled into the pipeline (for docs and the
/// tests that drive every site): io.read, io.write, io.verify, cache.load,
/// cache.store, pool.task, dataset.parse, campaign.probe, sweep.run,
/// sim.event, serve.accept, serve.parse, serve.respond, serve.stats,
/// stream.bin (fires as a streaming ingest pulls its next bin frame — CI
/// kills a replay mid-stream with it and proves checkpoint resume). Most
/// sites treat every action as a throw; sim.event instead drops the scheduled
/// event on a throw action and delays it by 250 ms on a flip/truncate action
/// (a simulator must degrade, not unwind, mid-run), and the serve.* sites
/// kill the one connection they fire on (the daemon itself never unwinds) —
/// serve.stats fires while a stats request is being answered inline on the
/// I/O thread. evolve.apply fires once per epoch event as a timeline
/// replay applies it — CI kills a replay mid-timeline with it and proves
/// the per-epoch records resume byte-identically.
inline constexpr const char* kSiteIoRead = "io.read";
inline constexpr const char* kSiteIoWrite = "io.write";
inline constexpr const char* kSiteIoVerify = "io.verify";
inline constexpr const char* kSiteCacheLoad = "cache.load";
inline constexpr const char* kSiteCacheStore = "cache.store";
inline constexpr const char* kSitePoolTask = "pool.task";
inline constexpr const char* kSiteDatasetParse = "dataset.parse";
inline constexpr const char* kSiteCampaignProbe = "campaign.probe";
inline constexpr const char* kSiteSweepRun = "sweep.run";
inline constexpr const char* kSiteSimEvent = "sim.event";
inline constexpr const char* kSiteServeAccept = "serve.accept";
inline constexpr const char* kSiteServeParse = "serve.parse";
inline constexpr const char* kSiteServeRespond = "serve.respond";
inline constexpr const char* kSiteServeStats = "serve.stats";
inline constexpr const char* kSiteStreamBin = "stream.bin";
inline constexpr const char* kSiteEvolveApply = "evolve.apply";

}  // namespace rp::fault
