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
//   * The pending set is two-tier. Near-future events (a ~4 ms calendar
//     window of 1 µs buckets) append into a calendar wheel with zero
//     comparisons, their records stored next to the bucket so a draining
//     bucket reads one compact region; a bucket is sorted once, when it
//     becomes current. Far events (probe slots seconds out, ping timeouts)
//     keep their records in a slab arena (util::SlabArena) behind an
//     indexed 4-ary min-heap of 24-byte (time, seq, ref) entries, and spill
//     into the wheel when their window arrives. Comparison-based sifts on
//     random keys are branch-misprediction-bound, so the wheel — through
//     which every hot event passes — is what buys the run-phase throughput;
//     see DESIGN.md §13 for measured numbers. Execution order is exactly
//     (time, seq) — each pop takes the min of the wheel candidate and the
//     heap top — so runs are bit-for-bit identical to a single sorted
//     queue.
//
// Deliveries a device applies at transmit time (Device::apply_at_transmit)
// are never scheduled, but the link reports each one here, and run(),
// run_until(), events_executed() and rp.sim.events count them as executed
// events: an event count stays a property of the simulated world, equal to
// what a fabric that schedules every delivery executes.
//
// Observability: run()/run_until() count executed events into the
// rp.sim.events counter and expose the queue's high-water mark
// (rp.sim.queue.high_water, scheduling-dependent, excluded from determinism
// snapshots). The sim.event fault site (RP_FAULT=sim.event:<spec>) drops a
// scheduled event (throw action) or delays it by 250 ms (flip/truncate
// actions), deterministically per the armed spec. Deliveries applied at
// transmit time are not scheduled, so the site never sees them.
#pragma once

#include <array>
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

  bool idle() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

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
  /// Exactly one cache line. Records are freely relocatable — execution
  /// copies the record to the stack before running it, so a store that
  /// grows under a scheduling action never moves a live payload.
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

  /// Queue entries are trivially copyable and carry the ordering key plus a
  /// handle to the record: a slab-arena slot for heap entries, an index
  /// into the bucket's record store for wheel entries. Records never move
  /// during sifts or bucket sorts.
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

  /// Calendar-wheel geometry: 4096 buckets of 1024 ns cover a ~4.2 ms
  /// window. The window does not wrap; when it drains, it re-bases at the
  /// earliest pending heap event.
  static constexpr std::size_t kWheelBuckets = 4096;
  static constexpr unsigned kBucketShift = 10;  // 1024 ns per bucket.
  static constexpr std::int64_t kWheelWindowNs =
      static_cast<std::int64_t>(kWheelBuckets) << kBucketShift;

  template <typename F>
  void emplace_event(util::SimTime at, F&& action) {
    using Fn = std::decay_t<F>;
    const std::int64_t at_ns = at.count_nanos();
    EventRecord* rec;
    std::uint32_t ref;
    const std::int64_t off = at_ns - wheel_start_ns_;
    const bool near = off >= 0 && off < kWheelWindowNs;
    if (near) {
      // Near-future events live next to their bucket: draining a bucket
      // then touches one compact region instead of slots scattered across
      // the arena.
      auto& store = stores_[static_cast<std::size_t>(off >> kBucketShift)];
      ref = static_cast<std::uint32_t>(store.size());
      rec = &store.emplace_back();
    } else {
      ref = arena_.allocate();
      rec = static_cast<EventRecord*>(arena_.at(ref));
    }
    if constexpr (stored_inline<F>()) {
      rec->ops = &InlineOps<Fn>::kOps;
      ::new (static_cast<void*>(rec->payload)) Fn(std::forward<F>(action));
    } else {
      rec->ops = &BoxedOps<Fn>::kOps;
      ::new (static_cast<void*>(rec->payload))
          Fn*(new Fn(std::forward<F>(action)));
    }
    const HeapEntry entry{at_ns, next_seq_++, ref};
    if (near) {
      wheel_insert(static_cast<std::size_t>(off >> kBucketShift), entry);
    } else {
      heap_push(entry);
    }
    ++size_;
    if (size_ > queue_high_water_) queue_high_water_ = size_;
  }

  /// Applies the sim.event fault site to a scheduled event: returns false
  /// to drop it, or adjusts `at` to delay it.
  bool fault_keep(util::SimTime& at);

  /// Files a wheel entry under bucket `b` (its record is already in the
  /// bucket's store).
  void wheel_insert(std::size_t b, HeapEntry entry);
  /// Copies the record to the stack, runs it, and destroys the payload.
  void run_record(const EventRecord& rec);
  /// Makes the cursor bucket hold the earliest remaining wheel entry,
  /// sorted; refills the window from the heap when the wheel drains.
  /// Returns false when the wheel is empty (any pending events are
  /// heap stragglers).
  bool wheel_candidate();
  /// True when the earliest pending event is at or before `deadline_ns`.
  bool next_at_or_before(std::int64_t deadline_ns);
  std::size_t next_occupied_after(std::size_t bucket) const;
  void compact_cursor_bucket();

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop();
  void execute_next();
  /// Adds the deliveries applied since the last run to `executed`, records
  /// the total, and returns it.
  std::size_t finish_run(std::size_t executed);

  /// Far-future events (beyond the wheel window), plus stragglers scheduled
  /// behind a re-based window; ordered by (time, seq). Their records live in
  /// the slab arena.
  std::vector<HeapEntry> heap_;
  /// The calendar wheel. Buckets before the cursor are always empty; the
  /// cursor bucket may carry a consumed prefix of length current_pos_.
  /// stores_[b] holds bucket b's records in arrival order; entries_[b]
  /// refers to them by index (a consumed or erased entry leaves its record
  /// bytes in place until the bucket clears).
  std::vector<std::vector<HeapEntry>> entries_ =
      std::vector<std::vector<HeapEntry>>(kWheelBuckets);
  std::vector<std::vector<EventRecord>> stores_ =
      std::vector<std::vector<EventRecord>>(kWheelBuckets);
  std::array<std::uint64_t, kWheelBuckets / 64> occupied_{};
  std::int64_t wheel_start_ns_ = 0;
  std::size_t bucket_cursor_ = 0;
  std::size_t current_pos_ = 0;
  bool current_sorted_ = false;
  std::size_t wheel_count_ = 0;  ///< Unconsumed entries across all buckets.
  std::size_t size_ = 0;         ///< Total pending events (wheel + heap).
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
