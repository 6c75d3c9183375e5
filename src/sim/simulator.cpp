#include "sim/simulator.hpp"

#include <algorithm>

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

obs::Histogram& queue_high_waters() {
  static obs::Histogram high_water("rp.sim.queue.high_water",
                                   obs::Stability::kScheduling);
  return high_water;
}

}  // namespace

Simulator::~Simulator() {
  // Pending events (run_until leftovers) own live payloads; destroy them
  // without running.
  for (const HeapEntry& entry : heap_) {
    auto& rec = *static_cast<EventRecord*>(arena_.at(entry.ref));
    if (rec.ops->destroy != nullptr) rec.ops->destroy(rec.payload);
  }
  // One sample per simulator, so concurrent campaigns cannot overwrite one
  // another's high-water mark.
  if (queue_high_water_ > 0) queue_high_waters().record(queue_high_water_);
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

std::size_t Simulator::run() {
  obs::Span span("sim.run");
  std::size_t executed = 0;
  for (; !heap_.empty(); ++executed) execute_next();
  return finish_run(executed);
}

std::size_t Simulator::run_until(util::SimTime deadline) {
  obs::Span span("sim.run");
  const std::int64_t deadline_ns = deadline.count_nanos();
  std::size_t executed = 0;
  for (; !heap_.empty() && heap_.front().at_ns <= deadline_ns; ++executed)
    execute_next();
  if (now_ < deadline) now_ = deadline;
  return finish_run(executed);
}

void Simulator::execute_next() {
  // Pending events are keyed (time, seq): same-time events run in schedule
  // order, which makes runs bit-for-bit reproducible.
  const HeapEntry top = heap_pop();
  now_ = util::SimTime::at(util::SimDuration::nanos(top.at_ns));
  // Run from a stack copy so the slot is free again before the action
  // schedules its successors (the LIFO free list hands it straight back).
  EventRecord local = *static_cast<EventRecord*>(arena_.at(top.ref));
  arena_.release(top.ref);
  struct PayloadGuard {
    EventRecord* rec;
    ~PayloadGuard() {
      if (rec->ops->destroy != nullptr) rec->ops->destroy(rec->payload);
    }
  } guard{&local};
  local.ops->run(local.payload);
}

std::size_t Simulator::finish_run(std::size_t executed) {
  executed +=
      static_cast<std::size_t>(deliveries_applied_ - deliveries_counted_);
  deliveries_counted_ = deliveries_applied_;
  events_executed_ += executed;
  if (!obs::metrics_enabled()) return executed;
  static obs::Counter events("rp.sim.events");
  events.add(executed);
  return executed;
}

}  // namespace rp::sim
