// A slab allocator for fixed-size slots, addressed by 32-bit handles.
//
// Built for the discrete-event simulator's event records: the hot path
// allocates and releases one slot per event, so both operations must be a
// handful of instructions and must never touch malloc once a slab exists.
// Slots live in fixed-capacity slabs that are never reallocated, so growth
// never copies a live slot and a pointer obtained from at() stays valid
// across later allocations.
// Freed slots form an intrusive LIFO free list threaded through the slot
// bytes themselves (a freed slot stores the index of the next free slot).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace rp::util {

template <std::size_t SlotBytes, std::size_t SlotAlign = alignof(std::max_align_t)>
class SlabArena {
  static_assert(SlotBytes >= sizeof(std::uint32_t),
                "slots must hold a free-list index");

 public:
  using Index = std::uint32_t;
  static constexpr Index kInvalidIndex = ~Index{0};

  /// Claims a slot and returns its handle. Reuses the most recently released
  /// slot when one exists; otherwise bump-allocates, growing by one slab
  /// (kSlabSlots slots) at a time.
  Index allocate() {
    if (free_head_ != kInvalidIndex) {
      const Index index = free_head_;
      std::memcpy(&free_head_, slot_ptr(index), sizeof(Index));
      return index;
    }
    const Index index = bump_++;
    if ((index >> kSlabShift) == slabs_.size())
      slabs_.push_back(std::make_unique<Slot[]>(kSlabSlots));
    return index;
  }

  /// Returns a slot to the free list. The handle must come from allocate()
  /// and must not be released twice.
  void release(Index index) {
    std::memcpy(slot_ptr(index), &free_head_, sizeof(Index));
    free_head_ = index;
  }

  /// The slot's storage; stable until release (slabs never move).
  void* at(Index index) { return slot_ptr(index); }

 private:
  static constexpr std::size_t kSlabShift = 10;  ///< 1024 slots per slab.
  static constexpr std::size_t kSlabSlots = std::size_t{1} << kSlabShift;
  static constexpr std::size_t kSlabMask = kSlabSlots - 1;

  struct alignas(SlotAlign) Slot {
    std::byte bytes[SlotBytes];
  };

  void* slot_ptr(Index index) {
    return slabs_[index >> kSlabShift][index & kSlabMask].bytes;
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  Index free_head_ = kInvalidIndex;
  Index bump_ = 0;
};

}  // namespace rp::util
