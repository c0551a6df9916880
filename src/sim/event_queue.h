// Deterministic discrete-event queue — zero-allocation event core.
//
// Three pieces, replacing the seed's binary heap of heap-allocated
// `std::function` entries:
//
//  * A slab-pooled event store: fixed-size `EventRecord`s in 256-record
//    slabs with a free list. Records never move, so callbacks are
//    constructed once, in place, in the record's embedded
//    `InlineCallback` (sim/callback.h) with a `kInlineCallbackCapacity`-
//    byte buffer. Callables larger than the buffer are boxed in a block
//    from the size-classed pool (base/pool.h); the `boxed_callbacks`
//    counter proves the model's steady state never takes that path.
//    After warm-up, schedule/cancel/fire perform zero heap allocations.
//
//  * Generation-counted handles: `{slot, generation}` plus a shared
//    reference to the pool core. `cancel()` and `pending()` are O(1);
//    cancellation destroys the callback and reclaims the slot
//    immediately (no lazy heap skimming of whole entries — at most a
//    24-byte stale near-heap key stays behind, see below). Handles may
//    outlive the queue: the core is freed when the last handle drops it.
//
//  * A hierarchical timing wheel keyed on `SimTime`: a small "near" heap
//    carries everything due in the current 2^kBucketShift-ns bucket (the
//    cursor) or earlier; every later event sits in an intrusive list in
//    one of kWheelLevels levels of kWheelSlots slots. An event is filed
//    at the level of the highest kLevelBits-bit group in which its bucket
//    index differs from the cursor, so the levels together cover every
//    non-negative `SimTime` and there is no overflow tier. When the near
//    heap runs dry the cursor moves to the next occupied slot of the
//    lowest occupied level and that slot's list cascades down one level,
//    or into the near heap once its bucket is the cursor. Every event
//    carries a global sequence number and the near heap orders by
//    (when, seq), so firing order is exactly the seed's deterministic
//    (time, insertion-order) contract, independent of wheel layout.
//
// Wheel entries cancel by an O(1) unlink. Cancelled events in the near
// heap leave a stale 24-byte key which is dropped when it surfaces; the
// heap compacts itself when more than half its keys are stale, so
// cancel-heavy workloads cannot bloat the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/units.h"
#include "sim/callback.h"
#include "stats/event_stats.h"

namespace es2 {

class EventQueue;

namespace detail {

/// Inline storage for a scheduled callback. Model lambdas capture at
/// most a `this` pointer, a few scalars or a packet handle, and at most
/// one `Continuation` (56 bytes): `[this, done]` is 64 bytes, which this
/// budget holds, keeping the whole record at 112 bytes.
inline constexpr std::size_t kInlineCallbackCapacity =
    sizeof(void*) + sizeof(Continuation);

/// The callable an event record embeds.
using EventCallback = InlineCallback<void(), kInlineCallbackCapacity>;

inline constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

/// Where a live event currently lives (drives O(1) cancellation).
enum class EventLocation : std::uint8_t {
  kFree = 0,   // on the free list
  kNear,       // keyed into the near heap
  kWheel,      // linked into a wheel slot
};

/// One pooled event. Records never move once allocated, so the callback
/// buffer is stable for in-place construction and invocation.
struct EventRecord {
  SimTime when = 0;
  std::uint64_t seq = 0;
  std::uint32_t gen = 0;          // bumped on fire/cancel/free
  EventLocation loc = EventLocation::kFree;
  std::uint32_t prev = kInvalidSlot;  // wheel-slot list / unused
  std::uint32_t next = kInvalidSlot;  // wheel-slot list / free list
  std::uint32_t wheel_slot = 0;       // flat wheel index while kWheel
  EventCallback fn;                   // empty while the record is free
};

/// Key stored in the near heap. Stale keys (generation mismatch) are
/// skimmed when they surface.
struct HeapKey {
  SimTime when;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

struct KeyLater {
  bool operator()(const HeapKey& a, const HeapKey& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

/// The pool + calendar state. Owned jointly by the EventQueue and any
/// outstanding handles, so a handle can always safely answer
/// cancel()/pending() even after its queue is destroyed.
class EventCore {
 public:
  static constexpr int kBucketShift = 12;  // 4096 ns per bucket
  static constexpr int kLevelBits = 8;
  static constexpr std::uint32_t kWheelSlots = 1u << kLevelBits;
  // 7 x 8 bits cover all 51 bucket-index bits of a non-negative SimTime.
  static constexpr int kWheelLevels = 7;
  static_assert(kWheelLevels * kLevelBits >= 63 - kBucketShift,
                "the wheel must cover every non-negative SimTime");
  static constexpr std::uint32_t kSlabSize = 256;

  EventCore();
  ~EventCore() { close(); }
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  /// Destroys every un-fired callback and invalidates all handles.
  /// Called when the owning queue dies; outstanding handles then report
  /// pending() == false and cancel() as a no-op.
  void close();

  /// Pops a record off the free list (growing by one slab if empty) —
  /// the caller constructs the callback into `record(slot).fn` and
  /// then calls enqueue().
  std::uint32_t acquire_slot();

  /// Returns a slot obtained from acquire_slot() that was never
  /// enqueue()d (callback construction threw). No generation bump is
  /// needed: no handle was ever issued for it and its callback is empty.
  void release_unqueued_slot(std::uint32_t slot) {
    EventRecord& r = record(slot);
    r.next = free_head_;
    free_head_ = slot;
  }

  EventRecord& record(std::uint32_t slot) {
    return slabs_[slot / kSlabSize]->records[slot % kSlabSize];
  }
  const EventRecord& record(std::uint32_t slot) const {
    return slabs_[slot / kSlabSize]->records[slot % kSlabSize];
  }

  /// Files a freshly constructed event into the calendar (near heap or
  /// a wheel slot, by `when`) and stamps its sequence.
  void enqueue(std::uint32_t slot, SimTime when);

  /// O(1): destroys the callback, bumps the generation and reclaims the
  /// slot. Wheel entries unlink immediately; near-heap entries leave a
  /// stale key behind.
  void cancel(std::uint32_t slot, std::uint32_t gen);

  bool pending(std::uint32_t slot, std::uint32_t gen) const {
    return record(slot).loc != EventLocation::kFree &&
           record(slot).gen == gen;
  }

  bool has_next() const { return live_ > 0; }

  /// Runs the earliest live event if one is due at or before `deadline`,
  /// first setting `clock` to its time so the callback observes its own
  /// timestamp. Returns false, running nothing, when the queue is empty
  /// or the earliest event is later than `deadline`.
  bool run_next(SimTime deadline, SimTime& clock);

  std::size_t live() const { return live_; }
  const EventQueueStats& stats() const { return stats_; }
  EventQueueStats& stats() { return stats_; }

 private:
  struct Slab {
    EventRecord records[kSlabSize];
  };
  static constexpr std::uint32_t kWheelSize = kWheelLevels * kWheelSlots;
  static constexpr std::uint32_t kOccupiedWords = kWheelSize / 64;
  static_assert(kOccupiedWords <= 32, "summary word holds one bit per word");

  static std::uint64_t bucket_index(SimTime when) {
    return static_cast<std::uint64_t>(when) >> kBucketShift;
  }

  void free_slot(std::uint32_t slot);
  void push_near(std::uint32_t slot, EventRecord& r);
  /// Files `r` into the near heap if its bucket is at or before the
  /// cursor, else into the wheel level of the highest bit group in which
  /// its bucket differs from the cursor. Returns that level, or -1 for
  /// the near heap.
  int file(std::uint32_t slot, EventRecord& r);
  void unlink_from_wheel(EventRecord& r, std::uint32_t slot);

  /// Drops stale keys off the near-heap top.
  void skim_near();
  /// Rebuilds the near heap without stale keys once more than half are.
  void maybe_compact_near();

  /// Advances the cursor, cascading wheel slots, until the near heap
  /// holds the earliest live event. Requires live_ > 0.
  void refill_near();

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::uint32_t free_head_ = kInvalidSlot;

  std::vector<HeapKey> near_;  // events with bucket_index(when) <= cursor_
  std::size_t near_stale_ = 0;
  // Level L, slot s is wheel_[L * kWheelSlots + s]: the list head of the
  // events whose bucket matches the cursor above bit group L and has s in
  // group L. Invariant: s is greater than the cursor's group L.
  std::uint32_t wheel_[kWheelSize];
  std::uint64_t occupied_[kOccupiedWords] = {};  // one bit per wheel slot
  std::uint32_t occupied_words_ = 0;  // one bit per non-zero occupied_ word
  std::uint64_t cursor_ = 0;  // absolute bucket index currently drained

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  EventQueueStats stats_;
};

}  // namespace detail

/// Handle for a scheduled event; cheap to copy, may outlive the event
/// and the queue itself.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly,
  /// on an empty handle, or after the event has fired.
  void cancel() {
    if (core_) core_->cancel(slot_, gen_);
  }

  /// True if the event is still scheduled to fire.
  bool pending() const { return core_ && core_->pending(slot_, gen_); }

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<detail::EventCore> core, std::uint32_t slot,
              std::uint32_t gen)
      : core_(std::move(core)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::EventCore> core_;
  std::uint32_t slot_ = detail::kInvalidSlot;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() : core_(std::make_shared<detail::EventCore>()) {}
  ~EventQueue() { core_->close(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`. Events at the same
  /// instant fire in scheduling order. Callables that fit
  /// `detail::kInlineCallbackCapacity` bytes (pointer-aligned, noexcept
  /// move) are stored inline in the pooled record (no allocation);
  /// larger ones are boxed in a pool block and counted.
  template <typename F>
  EventHandle schedule(SimTime when, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "callback must be invocable");
    detail::EventCore& core = *core_;
    const std::uint32_t slot = core.acquire_slot();
    detail::EventRecord& r = core.record(slot);
    // Copy-construction from an lvalue F (or the box allocation) may
    // throw even when the move is noexcept; give the slot back on unwind
    // so it is not stranded off both the free list and the calendar.
    try {
      r.fn.emplace(std::forward<F>(fn));
    } catch (...) {
      core.release_unqueued_slot(slot);
      throw;
    }
    if constexpr (!detail::EventCallback::fits_inline<Fn>) {
      core.stats().boxed_callbacks++;
    }
    core.enqueue(slot, when);
    return EventHandle(core_, slot, r.gen);
  }

  /// True if a live (non-cancelled) event remains.
  bool has_next() const { return core_->has_next(); }

  /// See detail::EventCore::run_next: the simulator's one-peek step.
  bool run_next(SimTime deadline, SimTime& clock) {
    return core_->run_next(deadline, clock);
  }

  /// Pops and runs the earliest live event, returning its time;
  /// `has_next()` must be true.
  SimTime pop_and_run();

  /// Live (scheduled, not cancelled) events.
  size_t size() const { return core_->live(); }

  /// Perf counters for this queue (see stats/event_stats.h).
  const EventQueueStats& stats() const { return core_->stats(); }

 private:
  std::shared_ptr<detail::EventCore> core_;
};

}  // namespace es2
