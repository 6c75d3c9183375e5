// The discrete-event engine underneath the layer-2/3 testbed.
//
// Events are (time, action) pairs; ties execute in scheduling order so runs
// are deterministic. All higher-level machinery — link propagation, switch
// forwarding, ICMP echo processing, probe pacing — is expressed as scheduled
// events, and campaign throughput is bounded by this engine, so the hot path
// is built for zero per-event heap allocation:
//
//   * A scheduled callable is placed directly into a fixed 64-byte event
//     record — one pointer to a static (run, destroy) vtable plus 56 bytes
//     of inline payload, enough for every event kind the testbed schedules
//     (link delivery, switch forward, host ICMP turnaround, probe slots).
//     Oversized callables fall back to a heap box transparently; the hot
//     kinds are static_assert'd inline at their call sites.
//   * The pending set is one 4-ary min-heap of 24-byte (time, seq, ref)
//     entries. The records stay in a slab arena (util::SlabArena), so a
//     sift moves entries and never payloads. Execution order is exactly
//     (time, seq). A campaign's pending events are mostly probe slots
//     seconds out; DESIGN.md §13 has the measured queue depths.
//
// Deliveries a device applies at transmit time (Device::apply_at_transmit)
// are never scheduled, but the link reports each one here, and run(),
// run_until(), events_executed() and rp.sim.events count them as executed
// events: an event count stays a property of the simulated world, equal to
// what a fabric that schedules every delivery executes.
//
// Observability: run()/run_until() count executed events into the
// rp.sim.events counter, and each simulator records its queue high-water
// mark into the rp.sim.queue.high_water histogram when it is destroyed (one
// sample per simulator; tagged scheduling, excluded from determinism
// snapshots). The sim.event fault site (RP_FAULT=sim.event:<spec>) drops a
// scheduled event (throw action) or delays it by 250 ms (flip/truncate
// actions), deterministically per the armed spec. Deliveries applied at
// transmit time are not scheduled, so the site never sees them.
#pragma once

#include <cstdint>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "util/sim_time.hpp"
#include "util/slab.hpp"

namespace rp::sim {

/// Deterministic discrete-event simulator.
class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  util::SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `at` (must not precede now()).
  /// The callable is stored inline in a slab slot when it fits
  /// (kInlinePayloadBytes, 8-byte alignment); larger captures are boxed.
  template <typename F>
  void schedule(util::SimTime at, F&& action) {
    if (at < now_)
      throw std::invalid_argument("Simulator::schedule: time in the past");
    if (fault::injection_enabled() && !fault_keep(at)) return;
    emplace_event(at, std::forward<F>(action));
  }

  /// Schedules `action` after `delay` from now.
  template <typename F>
  void schedule_in(util::SimDuration delay, F&& action) {
    schedule(now_ + delay, std::forward<F>(action));
  }

  /// Runs until the event queue drains; returns the number of events run.
  std::size_t run();
  /// Runs events with time <= deadline; advances now() to the deadline.
  std::size_t run_until(util::SimTime deadline);

  bool idle() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Events executed over this simulator's lifetime (all run calls),
  /// including the deliveries applied at transmit time.
  std::uint64_t events_executed() const { return events_executed_; }
  /// Deliveries applied at transmit time instead of scheduled.
  std::uint64_t deliveries_applied() const { return deliveries_applied_; }
  /// Called by a link for each delivery its far device applied at transmit
  /// time; the next run()/run_until() counts it as an executed event.
  void count_applied_delivery() { ++deliveries_applied_; }
  /// Largest pending-event count observed so far.
  std::size_t queue_high_water() const { return queue_high_water_; }

  /// Inline payload capacity of one event slot.
  static constexpr std::size_t kInlinePayloadBytes = 56;

  /// True when `F` is stored inline (no per-event allocation). Exposed so
  /// hot call sites can static_assert their captures stay slab-resident.
  template <typename F>
  static constexpr bool stored_inline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlinePayloadBytes &&
           alignof(Fn) <= alignof(std::max_align_t);
  }

 private:
  /// Static per-type dispatch table: run the payload, destroy the payload.
  /// `destroy` is null for trivially-destructible payloads (every hot event
  /// kind), which turns teardown into a predicted branch instead of an
  /// indirect call.
  struct EventOps {
    void (*run)(void*);
    void (*destroy)(void*);
  };

  /// One stored event: the ops pointer, then the payload at offset 8.
  /// Exactly one cache line. Records are freely relocatable: execution
  /// copies the record to the stack and releases its slot before running
  /// it, so the action may reuse the slot for the events it schedules.
  struct EventRecord {
    const EventOps* ops;
    std::byte payload[kInlinePayloadBytes];
  };
  static_assert(sizeof(EventRecord) == 64);

  template <typename Fn>
  struct InlineOps {
    static void run(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr EventOps kOps{
        &run, std::is_trivially_destructible_v<Fn> ? nullptr : &destroy};
  };

  template <typename Fn>
  struct BoxedOps {
    static void run(void* p) { (**static_cast<Fn**>(p))(); }
    static void destroy(void* p) { delete *static_cast<Fn**>(p); }
    static constexpr EventOps kOps{&run, &destroy};
  };

  /// Heap entries are trivially copyable and carry the ordering key plus
  /// the record's arena slot, so records never move during sifts.
  struct HeapEntry {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t ref;
  };

  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }

  /// Slots are cache-line aligned so a cold event record costs one line
  /// fill, not two.
  using Arena = util::SlabArena<sizeof(EventRecord), 64>;

  template <typename F>
  void emplace_event(util::SimTime at, F&& action) {
    using Fn = std::decay_t<F>;
    const std::uint32_t ref = arena_.allocate();
    auto* rec = static_cast<EventRecord*>(arena_.at(ref));
    if constexpr (stored_inline<F>()) {
      rec->ops = &InlineOps<Fn>::kOps;
      ::new (static_cast<void*>(rec->payload)) Fn(std::forward<F>(action));
    } else {
      rec->ops = &BoxedOps<Fn>::kOps;
      ::new (static_cast<void*>(rec->payload))
          Fn*(new Fn(std::forward<F>(action)));
    }
    heap_push(HeapEntry{at.count_nanos(), next_seq_++, ref});
    if (heap_.size() > queue_high_water_) queue_high_water_ = heap_.size();
  }

  /// Applies the sim.event fault site to a scheduled event: returns false
  /// to drop it, or adjusts `at` to delay it.
  bool fault_keep(util::SimTime& at);

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop();
  void execute_next();
  /// Adds the deliveries applied since the last run to `executed`, records
  /// the total, and returns it.
  std::size_t finish_run(std::size_t executed);

  /// Every pending event, ordered by (time, seq).
  std::vector<HeapEntry> heap_;
  Arena arena_;
  util::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t deliveries_applied_ = 0;
  /// deliveries_applied_ as of the last finish_run.
  std::uint64_t deliveries_counted_ = 0;
  std::size_t queue_high_water_ = 0;
};

}  // namespace rp::sim
