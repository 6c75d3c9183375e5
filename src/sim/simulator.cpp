#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rp::sim {
namespace {

/// How long a delayed (flip/truncate action) sim.event fault postpones the
/// event. Large against the microsecond-scale fabric delays — a delayed link
/// delivery turns the probe into an RTT outlier the §3 filters must absorb —
/// yet under the 2 s probe timeout, so delayed probe slots still complete.
constexpr util::SimDuration kFaultEventDelay = util::SimDuration::millis(250);

fault::Site& event_site() {
  static fault::Site site(fault::kSiteSimEvent);
  return site;
}

obs::Counter& events_dropped() {
  static obs::Counter dropped("rp.sim.events.dropped");
  return dropped;
}

obs::Counter& events_delayed() {
  static obs::Counter delayed("rp.sim.events.delayed");
  return delayed;
}

}  // namespace

Simulator::~Simulator() {
  // Pending events (run_until leftovers) own live payloads; destroy them
  // without running. Only the cursor bucket can carry a consumed prefix.
  const auto destroy = [](EventRecord& rec) {
    if (rec.ops->destroy != nullptr) rec.ops->destroy(rec.payload);
  };
  for (const HeapEntry& entry : heap_)
    destroy(*static_cast<EventRecord*>(arena_.at(entry.ref)));
  for (std::size_t b = 0; b < kWheelBuckets; ++b) {
    const auto& entries = entries_[b];
    for (std::size_t i = (b == bucket_cursor_) ? current_pos_ : 0;
         i < entries.size(); ++i)
      destroy(stores_[b][entries[i].ref]);
  }
}

bool Simulator::fault_keep(util::SimTime& at) {
  const auto action = event_site().fire();
  if (!action) return true;
  if (*action == fault::Action::kThrow) {
    // The default action drops the event outright: the frame is never
    // delivered, the probe slot never fires — the loss a congested fabric
    // or an overloaded LG inflicts, absorbed downstream by the §3 filters.
    events_dropped().add();
    return false;
  }
  events_delayed().add();
  at += kFaultEventDelay;
  return true;
}

void Simulator::wheel_insert(std::size_t b, HeapEntry entry) {
  auto& entries = entries_[b];
  if (b != bucket_cursor_) {
    if (b < bucket_cursor_) {
      // The cursor ran ahead of now() (a heap straggler executed, or
      // run_until skipped forward); pull it back to the new earliest
      // bucket. The old cursor bucket sheds its consumed prefix so it
      // re-sorts cleanly when the cursor returns.
      compact_cursor_bucket();
      bucket_cursor_ = b;
      current_pos_ = 0;
      current_sorted_ = false;
    }
    entries.push_back(entry);
  } else if (current_sorted_) {
    // Keep the active bucket's unconsumed suffix sorted; at >= now() and
    // a fresh seq guarantee the slot lands at or after current_pos_.
    entries.insert(std::upper_bound(entries.begin() + current_pos_,
                                    entries.end(), entry, entry_less),
                   entry);
  } else {
    entries.push_back(entry);
  }
  occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  ++wheel_count_;
}

bool Simulator::wheel_candidate() {
  for (;;) {
    if (wheel_count_ > 0) {
      auto& entries = entries_[bucket_cursor_];
      if (current_pos_ < entries.size()) {
        if (!current_sorted_) {
          // current_pos_ is 0 whenever the bucket is unsorted.
          std::sort(entries.begin(), entries.end(), entry_less);
          current_sorted_ = true;
        }
        return true;
      }
      if (!entries.empty()) {
        entries.clear();
        stores_[bucket_cursor_].clear();
        occupied_[bucket_cursor_ >> 6] &=
            ~(std::uint64_t{1} << (bucket_cursor_ & 63));
      }
      current_pos_ = 0;
      current_sorted_ = false;
      bucket_cursor_ = next_occupied_after(bucket_cursor_);
      continue;
    }
    // The wheel drained. Discard the cursor bucket's leftovers, then
    // re-base the window at the earliest pending heap event and spill
    // everything inside the new window into the buckets.
    if (!entries_[bucket_cursor_].empty()) {
      entries_[bucket_cursor_].clear();
      stores_[bucket_cursor_].clear();
      occupied_[bucket_cursor_ >> 6] &=
          ~(std::uint64_t{1} << (bucket_cursor_ & 63));
    }
    current_pos_ = 0;
    current_sorted_ = false;
    if (heap_.empty()) return false;
    wheel_start_ns_ = heap_.front().at_ns;
    bucket_cursor_ = 0;
    const std::int64_t limit = wheel_start_ns_ + kWheelWindowNs;
    while (!heap_.empty() && heap_.front().at_ns < limit) {
      HeapEntry spill = heap_pop();
      const auto b = static_cast<std::size_t>(
          (spill.at_ns - wheel_start_ns_) >> kBucketShift);
      auto& store = stores_[b];
      const auto* rec = static_cast<EventRecord*>(arena_.at(spill.ref));
      store.push_back(*rec);
      arena_.release(spill.ref);
      spill.ref = static_cast<std::uint32_t>(store.size() - 1);
      entries_[b].push_back(spill);
      occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
      ++wheel_count_;
    }
  }
}

std::size_t Simulator::next_occupied_after(std::size_t bucket) const {
  std::size_t word = (bucket + 1) >> 6;
  if (word >= occupied_.size()) return kWheelBuckets;
  std::uint64_t bits =
      occupied_[word] & (~std::uint64_t{0} << ((bucket + 1) & 63));
  for (;;) {
    if (bits != 0)
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    if (++word == occupied_.size()) return kWheelBuckets;
    bits = occupied_[word];
  }
}

void Simulator::compact_cursor_bucket() {
  auto& entries = entries_[bucket_cursor_];
  if (current_pos_ > 0) {
    // Drops only the entries; the consumed records stay in the store (their
    // payloads are already destroyed) until the bucket clears.
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(current_pos_));
    current_pos_ = 0;
  }
  if (entries.empty()) {
    stores_[bucket_cursor_].clear();
    occupied_[bucket_cursor_ >> 6] &=
        ~(std::uint64_t{1} << (bucket_cursor_ & 63));
  }
}

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_less(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

Simulator::HeapEntry Simulator::heap_pop() {
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the displaced tail entry down from the root, moving holes rather
    // than swapping: at most one write per level plus the final placement.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t limit = std::min(first + 4, n);
      for (std::size_t child = first + 1; child < limit; ++child)
        if (entry_less(heap_[child], heap_[best])) best = child;
      if (!entry_less(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void Simulator::run_record(const EventRecord& rec) {
  // Run from a stack copy: the action may schedule into the record's own
  // bucket and grow the store out from under the original bytes. The copy
  // also lets a heap record's slab slot be released before the action runs.
  EventRecord local = rec;
  struct PayloadGuard {
    EventRecord* rec;
    ~PayloadGuard() {
      if (rec->ops->destroy != nullptr) rec->ops->destroy(rec->payload);
    }
  } guard{&local};
  local.ops->run(local.payload);
}

std::size_t Simulator::run() {
  obs::Span span("sim.run");
  std::size_t executed = 0;
  while (size_ > 0) {
    if (!wheel_candidate()) {
      execute_next();
      ++executed;
      continue;
    }
    auto& entries = entries_[bucket_cursor_];
    const std::int64_t bucket_end =
        wheel_start_ns_ +
        (static_cast<std::int64_t>(bucket_cursor_ + 1) << kBucketShift);
    if (!heap_.empty() && heap_.front().at_ns < bucket_end) {
      // Rare: a heap straggler interleaves with this bucket.
      execute_next();
      ++executed;
      continue;
    }
    // Drain the whole sorted bucket in one tight loop: nothing can preempt
    // it. New events land at `at >= now()`, so they hit this bucket at or
    // after current_pos_ (picked up below) or a later one; heap inserts land
    // beyond the window, which ends after this bucket. The vectors may grow
    // under an insert, so index — don't cache data pointers.
    auto& store = stores_[bucket_cursor_];
    while (current_pos_ < entries.size()) {
      const HeapEntry top = entries[current_pos_++];
      --wheel_count_;
      --size_;
      ++executed;
      now_ = util::SimTime::at(util::SimDuration::nanos(top.at_ns));
      run_record(store[top.ref]);
    }
  }
  return finish_run(executed);
}

std::size_t Simulator::run_until(util::SimTime deadline) {
  obs::Span span("sim.run");
  const std::int64_t deadline_ns = deadline.count_nanos();
  std::size_t executed = 0;
  while (next_at_or_before(deadline_ns)) {
    execute_next();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return finish_run(executed);
}

bool Simulator::next_at_or_before(std::int64_t deadline_ns) {
  if (size_ == 0) return false;
  if (!wheel_candidate()) return heap_.front().at_ns <= deadline_ns;
  std::int64_t next = entries_[bucket_cursor_][current_pos_].at_ns;
  if (!heap_.empty() && heap_.front().at_ns < next) next = heap_.front().at_ns;
  return next <= deadline_ns;
}

void Simulator::execute_next() {
  // Pending events are keyed (time, seq): same-time events run in schedule
  // order, which makes runs bit-for-bit reproducible. The next event is the
  // min of the wheel candidate and the heap top — the heap can hold the
  // earlier event only when a straggler was scheduled behind the window.
  if (wheel_candidate()) {
    auto& entries = entries_[bucket_cursor_];
    if (heap_.empty() || !entry_less(heap_.front(), entries[current_pos_])) {
      const HeapEntry top = entries[current_pos_++];
      --wheel_count_;
      --size_;
      now_ = util::SimTime::at(util::SimDuration::nanos(top.at_ns));
      run_record(stores_[bucket_cursor_][top.ref]);
      return;
    }
  }
  const HeapEntry top = heap_pop();
  --size_;
  now_ = util::SimTime::at(util::SimDuration::nanos(top.at_ns));
  const auto* rec = static_cast<EventRecord*>(arena_.at(top.ref));
  EventRecord local = *rec;
  arena_.release(top.ref);
  run_record(local);
}

std::size_t Simulator::finish_run(std::size_t executed) {
  executed +=
      static_cast<std::size_t>(deliveries_applied_ - deliveries_counted_);
  deliveries_counted_ = deliveries_applied_;
  events_executed_ += executed;
  if (!obs::metrics_enabled()) return executed;
  static obs::Counter events("rp.sim.events");
  static obs::Gauge high_water("rp.sim.queue.high_water",
                               obs::Stability::kScheduling);
  events.add(executed);
  high_water.set(static_cast<double>(queue_high_water_));
  return executed;
}

}  // namespace rp::sim
