// rp::evolve engine: replay a Timeline as copy-on-write overlays.
//
// The EpochTimeline holds a borrowed immutable base Scenario and advances a
// working cursor through the timeline's epochs. Events mutate only the
// cursor's IxpEcosystem copy, §5 prices, and traffic scale — the AS graph is
// shared untouched across every epoch — and after each epoch the cursor is
// snapshotted into an EpochState. view_at(k) then exposes epoch k as a
// core::WorldView (base config + base graph + epoch ecosystem), so the
// studies, io::save_scenario, and the serve executor all run on an epoch
// exactly as they run on a Scenario, with no per-epoch world rebuild.
//
// Determinism contract: every random decision inside an event (which members
// join/leave, which provider carries a pseudowire) draws from an RNG forked
// purely from (base seed, epoch index, event index), and event application
// is single-threaded. Replaying the same timeline therefore yields
// byte-identical epoch ecosystems at any RP_THREADS — and a *fresh* base
// build replayed through the same events (the from-scratch comparison path)
// lands on the identical state, which is what the overlay-vs-rebuild tests
// and bench/perf_evolve check.
//
// Fault site: "evolve.apply" fires once per event before it is applied, so a
// kill lands between events; the replay layer's per-epoch records make the
// rerun resume byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/world_view.hpp"
#include "econ/cost_model.hpp"
#include "evolve/timeline.hpp"
#include "net/subnet_allocator.hpp"

namespace rp::evolve {

/// The state of the world after one epoch's events.
struct EpochState {
  std::string label;
  ixp::IxpEcosystem ecosystem;          ///< COW overlay (base graph shared).
  std::vector<ixp::IxpId> measured;     ///< Base measured set (ids stable).
  econ::CostParameters prices;          ///< After sets and decays.
  double traffic_scale = 1.0;           ///< Cumulative traffic growth.
  std::size_t events = 0;               ///< Events applied in this epoch.
  std::size_t joins = 0;                ///< Member interfaces added.
  std::size_t leaves = 0;               ///< Member interfaces removed.
  std::size_t new_ixps = 0;
  std::size_t stashed = 0;  ///< Interfaces currently down (outage/provider).
};

/// What an epoch row reports about membership: the state's event counts
/// plus the IXP and interface totals of its ecosystem. Counted on demand by
/// composition_of, so replaying an epoch does not pay for it.
struct EpochComposition {
  std::string label;
  std::size_t events = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t new_ixps = 0;
  std::size_t stashed = 0;            ///< Interfaces down at epoch end.
  std::size_t ixps = 0;               ///< IXPs in the epoch ecosystem.
  std::size_t interfaces = 0;         ///< Member interfaces across all IXPs.
  std::size_t remote_interfaces = 0;  ///< Ground-truth remote among them.
  double traffic_scale = 1.0;
};

EpochComposition composition_of(const EpochState& state);

class EpochTimeline {
 public:
  /// Borrows `base` for the engine's lifetime. Throws std::invalid_argument
  /// when the base scenario's config does not match timeline.base_config()
  /// (replaying a timeline over the wrong world would silently lie).
  EpochTimeline(Timeline timeline, const core::Scenario& base);

  const Timeline& timeline() const { return timeline_; }
  const core::Scenario& base() const { return *base_; }
  std::size_t epoch_count() const { return timeline_.epochs.size(); }

  /// The state after epoch k's events. Replays forward (and caches) as
  /// needed; throws std::out_of_range past the last epoch.
  const EpochState& state_at(std::size_t k);

  /// Epoch k as a world view: base config + base graph + epoch ecosystem.
  /// The view borrows from this engine — keep it alive while studying.
  core::WorldView view_at(std::size_t k);

  /// `base` with its traffic totals scaled by epoch k's cumulative growth —
  /// the study config an epoch's OffloadStudy should run with.
  core::OffloadStudyConfig study_config_at(std::size_t k,
                                           core::OffloadStudyConfig base = {});

 private:
  struct Stashed {
    ixp::IxpId ixp = 0;
    /// Provider name for provider-fail stashes, empty for outages.
    std::string provider;
    ixp::MemberInterface iface;
  };

  void advance_one();
  void apply_event(const EpochEvent& event, std::size_t epoch_index,
                   std::size_t event_index, EpochState& stats);

  const core::Scenario* base_;
  Timeline timeline_;

  // The working cursor: the state the *next* epoch's events apply to.
  ixp::IxpEcosystem eco_;
  econ::CostParameters prices_;
  double traffic_scale_ = 1.0;
  std::uint32_t mac_serial_;
  net::SubnetAllocator lan_pool_;
  std::vector<Stashed> stash_;

  /// Snapshots of epochs [0, size). A deque, because state_at and view_at
  /// hand out references into it that must survive later epochs' push_back.
  std::deque<EpochState> states_;
};

/// The from-scratch comparison path: builds a *fresh* base world for the
/// timeline's config (no snapshot cache) and replays events through epoch k,
/// returning the resulting state. Byte-identical to state_at(k) on an
/// overlay engine — the property the determinism tests pin — but pays a full
/// world build per call, which is what bench/perf_evolve measures overlays
/// against.
EpochState rebuild_state_at(const Timeline& timeline, std::size_t k);

}  // namespace rp::evolve
