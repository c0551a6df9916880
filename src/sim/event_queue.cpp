#include "sim/event_queue.h"

#include <algorithm>
#include <limits>

#include "base/assert.h"

namespace es2 {
namespace detail {

EventCore::EventCore() {
  std::fill(std::begin(wheel_), std::end(wheel_), kInvalidSlot);
}

void EventCore::close() {
  // Destroy callbacks of events that never fired (their captures may own
  // resources, exactly like the seed's std::function entries did) and
  // invalidate every outstanding handle via the generation bump.
  for (auto& slab : slabs_) {
    for (EventRecord& r : slab->records) {
      if (r.loc != EventLocation::kFree) {
        r.fn.reset();
        r.gen++;
        r.loc = EventLocation::kFree;
      }
    }
  }
  near_.clear();
  near_stale_ = 0;
  std::fill(std::begin(wheel_), std::end(wheel_), kInvalidSlot);
  std::fill(std::begin(occupied_), std::end(occupied_), 0);
  occupied_words_ = 0;
  live_ = 0;
  // Rebuild the free list from scratch (idempotent), keeping low slots
  // first, so every slab's records stay reachable if the core is used
  // again after close().
  free_head_ = kInvalidSlot;
  for (std::size_t s = slabs_.size(); s-- > 0;) {
    Slab& slab = *slabs_[s];
    const std::uint32_t base = static_cast<std::uint32_t>(s) * kSlabSize;
    for (std::uint32_t i = kSlabSize; i-- > 0;) {
      slab.records[i].prev = kInvalidSlot;
      slab.records[i].next = free_head_;
      free_head_ = base + i;
    }
  }
}

std::uint32_t EventCore::acquire_slot() {
  if (free_head_ == kInvalidSlot) {
    ES2_CHECK_MSG(slabs_.size() < kInvalidSlot / kSlabSize,
                  "event pool exhausted");
    const std::uint32_t base =
        static_cast<std::uint32_t>(slabs_.size()) * kSlabSize;
    slabs_.push_back(std::make_unique<Slab>());
    Slab& slab = *slabs_.back();
    // Thread the fresh slab onto the free list, keeping low slots first.
    for (std::uint32_t i = kSlabSize; i-- > 0;) {
      slab.records[i].next = free_head_;
      free_head_ = base + i;
    }
    stats_.slabs_allocated++;
  }
  const std::uint32_t slot = free_head_;
  EventRecord& r = record(slot);
  free_head_ = r.next;
  r.next = kInvalidSlot;
  return slot;
}

void EventCore::free_slot(std::uint32_t slot) {
  EventRecord& r = record(slot);
  r.fn.reset();
  r.gen++;  // invalidate outstanding handles / stale heap keys
  r.loc = EventLocation::kFree;
  r.prev = kInvalidSlot;
  r.next = free_head_;
  free_head_ = slot;
}

void EventCore::push_near(std::uint32_t slot, EventRecord& r) {
  r.loc = EventLocation::kNear;
  near_.push_back(HeapKey{r.when, r.seq, slot, r.gen});
  std::push_heap(near_.begin(), near_.end(), KeyLater{});
}

int EventCore::file(std::uint32_t slot, EventRecord& r) {
  const std::uint64_t b = bucket_index(r.when);
  if (b <= cursor_) {
    push_near(slot, r);
    return -1;
  }
  const int level = (63 - __builtin_clzll(b ^ cursor_)) / kLevelBits;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(level) * kWheelSlots +
      (static_cast<std::uint32_t>(b >> (level * kLevelBits)) &
       (kWheelSlots - 1));
  r.loc = EventLocation::kWheel;
  r.wheel_slot = idx;
  r.prev = kInvalidSlot;
  r.next = wheel_[idx];
  if (r.next != kInvalidSlot) record(r.next).prev = slot;
  wheel_[idx] = slot;
  occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  occupied_words_ |= 1u << (idx / 64);
  return level;
}

void EventCore::unlink_from_wheel(EventRecord& r, std::uint32_t slot) {
  (void)slot;  // only referenced by the debug check below
  const std::uint32_t idx = r.wheel_slot;
  if (r.prev != kInvalidSlot) {
    record(r.prev).next = r.next;
  } else {
    ES2_DCHECK(wheel_[idx] == slot);
    wheel_[idx] = r.next;
  }
  if (r.next != kInvalidSlot) record(r.next).prev = r.prev;
  if (wheel_[idx] == kInvalidSlot) {
    occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    if (occupied_[idx / 64] == 0) occupied_words_ &= ~(1u << (idx / 64));
  }
}

void EventCore::enqueue(std::uint32_t slot, SimTime when, std::uint64_t seq) {
  ES2_CHECK_MSG(when >= 0, "cannot schedule before time 0");
  EventRecord& r = record(slot);
  r.when = when;
  r.seq = seq;
  stats_.count_placement(file(slot, r));
  stats_.scheduled++;
  ++live_;
  if (live_ > stats_.peak_live) stats_.peak_live = live_;
}

void EventCore::cancel(std::uint32_t slot, std::uint32_t gen) {
  EventRecord& r = record(slot);
  if (r.gen != gen || r.loc == EventLocation::kFree) return;
  const bool in_near = r.loc == EventLocation::kNear;
  if (in_near) {
    ++near_stale_;
  } else {
    unlink_from_wheel(r, slot);
  }
  // Reclaim (and bump the generation) BEFORE any compaction so the
  // cancelled key is recognisably dead: compacting first would let it
  // survive the pass while the stale counter resets, and skim_near()
  // would later underflow that counter when the key finally surfaced.
  free_slot(slot);
  stats_.cancelled++;
  --live_;
  if (in_near) maybe_compact_near();
}

void EventCore::skim_near() {
  while (!near_.empty()) {
    const HeapKey& top = near_.front();
    if (record(top.slot).gen == top.gen) return;  // live key
    std::pop_heap(near_.begin(), near_.end(), KeyLater{});
    near_.pop_back();
    ES2_DCHECK(near_stale_ > 0);
    --near_stale_;
  }
}

void EventCore::maybe_compact_near() {
  if (near_stale_ < 64 || near_stale_ * 2 <= near_.size()) return;
  // Precondition: every counted-stale key has a mismatched generation
  // (cancel() calls free_slot() before compacting), so exactly
  // `near_stale_` keys are removed here and resetting it is exact.
  auto dead = [this](const HeapKey& k) {
    return record(k.slot).gen != k.gen;
  };
  near_.erase(std::remove_if(near_.begin(), near_.end(), dead), near_.end());
  std::make_heap(near_.begin(), near_.end(), KeyLater{});
  near_stale_ = 0;
  stats_.heap_compactions++;
}

void EventCore::refill_near() {
  while (near_.empty()) {
    ES2_CHECK_MSG(occupied_words_ != 0, "live event count out of sync");
    // Bits run level-major, slot-ascending, and every occupied slot of a
    // level lies after the cursor's group there, so the lowest set bit
    // is the next occupied slot of the lowest occupied level: it holds
    // the earliest events.
    const auto word =
        static_cast<std::uint32_t>(__builtin_ctz(occupied_words_));
    const std::uint32_t idx =
        word * 64 +
        static_cast<std::uint32_t>(__builtin_ctzll(occupied_[word]));
    const int level = static_cast<int>(idx / kWheelSlots);
    const int shift = level * kLevelBits;
    // Enter the slot: keep the cursor's groups above `level`, take the
    // slot's group there and the lowest bucket below it.
    cursor_ = (cursor_ >> (shift + kLevelBits) << (shift + kLevelBits)) |
              (std::uint64_t{idx % kWheelSlots} << shift);
    std::uint32_t slot = wheel_[idx];
    wheel_[idx] = kInvalidSlot;
    occupied_[word] &= ~(std::uint64_t{1} << (idx % 64));
    if (occupied_[word] == 0) occupied_words_ &= ~(1u << word);
    // Every entry now matches the cursor down to group `level`, so it
    // refiles strictly lower: a lower level, or the near heap.
    while (slot != kInvalidSlot) {
      EventRecord& r = record(slot);
      const std::uint32_t next = r.next;
      file(slot, r);
      if (level > 0) stats_.cascades++;
      slot = next;
    }
  }
}

bool EventCore::run_next(SimTime deadline, SimTime& clock) {
  if (live_ == 0) return false;
  skim_near();
  if (near_.empty()) refill_near();
  const HeapKey k = near_.front();
  if (k.when > deadline) return false;
  clock = k.when;
  std::pop_heap(near_.begin(), near_.end(), KeyLater{});
  near_.pop_back();
  EventRecord& r = record(k.slot);
  ES2_DCHECK(r.gen == k.gen);
  // Invalidate handles before running, matching the seed's semantics:
  // during the callback the event is no longer pending and self-cancel
  // is a no-op. The slot is reclaimed only after the callback returns,
  // so reentrant scheduling cannot overwrite the executing closure.
  r.gen++;
  --live_;
  stats_.fired++;
  // Reclaim the slot on both normal return and exceptional unwind: a
  // throwing callback must still have its closure destroyed and its
  // record returned to the free list (the seed's std::function entry
  // was likewise destroyed during unwind).
  struct SlotReclaimer {
    EventCore* core;
    std::uint32_t slot;
    ~SlotReclaimer() { core->free_slot(slot); }
  } reclaim{this, k.slot};
  r.fn();
  return true;
}

}  // namespace detail

SimTime EventQueue::pop_and_run() {
  ES2_CHECK_MSG(has_next(), "pop_and_run on empty queue");
  SimTime when = 0;
  core_->run_next(std::numeric_limits<SimTime>::max(), when);
  return when;
}

}  // namespace es2
