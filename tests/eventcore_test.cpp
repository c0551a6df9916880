// Contract tests for the zero-allocation event core: ordering across the
// calendar layers (near heap / timing-wheel levels), generation-handle
// cancellation semantics, handle-outlives-queue safety, determinism under
// interleaved cancels, inline-callback storage, the continuation type and
// pooled packet handles the packet path is built on, and the zero-steady-
// state-allocation guarantee — for the event core alone and for whole
// simulated cells after warmup (this binary links es2_alloc_hook).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

#include "apps/httpd.h"
#include "apps/netperf.h"
#include "apps/storm.h"
#include "base/alloc_hook.h"
#include "base/pool.h"
#include "base/rng.h"
#include "harness/testbed.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "virtio/virtqueue.h"

namespace es2 {
namespace {

using detail::kInlineCallbackCapacity;

// ---------------------------------------------------------------------------
// Inline-storage budget: the capture patterns used across the models must
// fit the pooled record's inline buffer (this is what keeps scheduling
// allocation-free). Representative shapes, checked at compile time.
// ---------------------------------------------------------------------------
struct ModelStandIn {
  void* a;
  void* b;
};
static_assert(sizeof(void*) <= kInlineCallbackCapacity,
              "[this] capture must fit inline");
static_assert(sizeof(ModelStandIn) + sizeof(std::int64_t) <=
                  kInlineCallbackCapacity,
              "[this, ptr, scalar] capture must fit inline");
static_assert(sizeof(std::function<void()>) <= kInlineCallbackCapacity,
              "a std::function copy must fit inline (vm timer ticks)");
static_assert(sizeof(PacketPtr) + sizeof(void*) <= kInlineCallbackCapacity,
              "[this, PacketPtr] capture must fit inline (link delivery)");
static_assert(sizeof(void*) + sizeof(Continuation) <= kInlineCallbackCapacity,
              "[this, Continuation] capture must fit inline (segment "
              "completions and deferred continuations)");
static_assert(sizeof(PacketPtr) == sizeof(void*),
              "a packet handle is one pointer");

// ---------------------------------------------------------------------------
// Ordering across calendar layers
// ---------------------------------------------------------------------------

TEST(EventCore, OrderingAcrossNearWheelAndFarLayers) {
  // Times chosen to land in the near heap (same bucket), wheel level 0
  // (within ~1 ms) and the levels above it.
  Simulator sim;
  std::vector<SimTime> fired;
  const std::vector<SimTime> times = {
      0,       1,        2,          4095,     4096,      5000,
      100000,  999999,   1048575,    1048576,  2000000,   50000000,
      sec(1),  sec(1) + 1, sec(2),   msec(3),  usec(7),   123456789};
  std::vector<SimTime> shuffled = times;
  Rng rng = Rng::stream(7, "shuffle");
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[rng.next_u64() % i]);
  }
  for (SimTime t : shuffled) {
    sim.at(t, [&fired, t] { fired.push_back(t); });
  }
  sim.run_to_completion();
  std::vector<SimTime> expect = times;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(EventCore, SameInstantFifoAcrossLayerMigration) {
  // Events scheduled at the same far-future instant must fire in
  // scheduling order even after cascading down the wheel levels into
  // the near heap.
  Simulator sim;
  std::vector<int> order;
  const SimTime t = sec(3);  // far beyond the wheel horizon
  for (int i = 0; i < 100; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  // Force the cursor to sweep through many buckets first.
  for (SimTime k = 0; k < sec(3); k += msec(50)) sim.at(k, [] {});
  sim.run_to_completion();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventCore, DeferRunsAfterQueuedSameInstantEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.at(usec(5), [&] {
    sim.defer([&] { order.push_back(3); });
  });
  sim.at(usec(5), [&] { order.push_back(1); });
  sim.at(usec(5), [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Cancellation semantics
// ---------------------------------------------------------------------------

TEST(EventCore, CancelThenFireAndDoubleCancelAreSafe) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.at(usec(1), [&] { ++fired; });
  EventHandle b = sim.at(usec(1), [&] { ++fired; });
  EventHandle far = sim.at(sec(5), [&] { ++fired; });
  a.cancel();
  a.cancel();  // double cancel: no-op
  far.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(far.pending());
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  b.cancel();  // cancel after fire: no-op
  EXPECT_FALSE(b.pending());
}

TEST(EventCore, CancelReclaimsSlotImmediately) {
  // A cancel-heavy workload must not grow the pool: the cancelled slot is
  // reused by the next schedule (the seed's lazy skim kept them queued).
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  for (int i = 0; i < 100000; ++i) {
    EventHandle h = sim.at(sec(1), [] {});
    h.cancel();
  }
  EXPECT_EQ(sim.queue().size(), 0u);
  EXPECT_EQ(stats.cancelled, 100000u);
  EXPECT_EQ(stats.peak_live, 1u);
  EXPECT_EQ(stats.slabs_allocated, 1u);
}

TEST(EventCore, HeapCompactionDuringCancelStormKeepsStaleCountExact) {
  // Regression: cancel() used to run the compaction BEFORE free_slot()
  // bumped the cancelled key's generation, so that key looked live,
  // survived the pass, and the stale counter reset to 0 — when the key
  // later surfaced, the skim underflowed the counter (Debug builds abort
  // on ES2_DCHECK(near_stale_ > 0); NDEBUG builds wrap the size_t).
  // Cancelling everything in a large batch makes the final skim walk
  // exactly as many dead keys as the counter recorded, so any miscount
  // trips. The far timers ride along: wheel entries unlink on cancel and
  // must leave the near heap's count untouched.
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  for (int round = 0; round < 4; ++round) {
    std::vector<EventHandle> near_events;
    std::vector<EventHandle> far_events;
    for (int i = 0; i < 300; ++i) {
      near_events.push_back(sim.after(1, [] {}));      // near heap
      far_events.push_back(sim.after(sec(3), [] {}));  // wheel level 2
    }
    for (EventHandle& h : near_events) h.cancel();
    for (EventHandle& h : far_events) h.cancel();
    sim.after(2, [] {});  // forces a skim through the cancelled keys
    sim.run_for(usec(1));
  }
  EXPECT_GT(stats.heap_compactions, 0u)
      << "storm did not reach the compaction threshold; bump the counts";
  sim.run_to_completion();
  EXPECT_EQ(sim.queue().size(), 0u);
}

TEST(EventCore, ThrowingCallbackStillReclaimsSlotAndDestroysClosure) {
  // A callback that throws must still have its closure destroyed and its
  // slot returned to the free list (the seed destroyed its std::function
  // during unwind); the queue stays usable afterwards.
  Simulator sim;
  std::shared_ptr<int> payload = std::make_shared<int>(7);
  sim.at(usec(1), [keep = payload] {
    (void)*keep;
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(sim.run_to_completion(), std::runtime_error);
  EXPECT_EQ(payload.use_count(), 1);  // closure destroyed during unwind
  EXPECT_EQ(sim.queue().size(), 0u);
  int fired = 0;
  sim.at(usec(2), [&] { ++fired; });  // reuses the reclaimed slot
  EXPECT_EQ(sim.queue().stats().slabs_allocated, 1u);
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventCore, SlotReuseDoesNotConfuseStaleHandle) {
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle h1 = sim.at(usec(1), [&] { first_fired = true; });
  h1.cancel();
  // The freed slot is immediately reused by the next schedule.
  EventHandle h2 = sim.at(usec(1), [&] { second_fired = true; });
  EXPECT_FALSE(h1.pending());  // stale generation: does not see h2's event
  EXPECT_TRUE(h2.pending());
  h1.cancel();  // must NOT cancel h2's event
  EXPECT_TRUE(h2.pending());
  sim.run_to_completion();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

TEST(EventCore, SelfCancelDuringCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  std::shared_ptr<EventHandle> h = std::make_shared<EventHandle>();
  *h = sim.at(usec(1), [&fired, h] {
    ++fired;
    EXPECT_FALSE(h->pending());  // already consumed, like the seed
    h->cancel();                 // no-op
  });
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventCore, HandleOutlivesQueue) {
  EventHandle survivor;
  {
    Simulator sim;
    survivor = sim.at(sec(1), [] {});
    EXPECT_TRUE(survivor.pending());
  }
  // The queue is gone; the pooled core lives on through the handle.
  EXPECT_FALSE(survivor.pending());
  survivor.cancel();  // must be safe, not a use-after-free
}

TEST(EventCore, PendingCallbackCapturesAreDestroyedWithQueue) {
  std::shared_ptr<int> payload = std::make_shared<int>(42);
  {
    Simulator sim;
    sim.at(sec(1), [keep = payload] { (void)*keep; });
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(payload.use_count(), 1);  // queue destruction ran the dtor
}

// ---------------------------------------------------------------------------
// Boxed fallback for oversized captures (via EventQueue directly; the
// Simulator static_asserts the inline budget for model call sites)
// ---------------------------------------------------------------------------

TEST(EventCore, OversizedCallbackFallsBackToBox) {
  Simulator sim;
  std::array<std::int64_t, 16> big{};  // 128 bytes > inline capacity
  big[7] = 99;
  std::int64_t seen = 0;
  sim.queue().schedule(usec(1), [big, &seen] { seen = big[7]; });
  EXPECT_EQ(sim.queue().stats().boxed_callbacks, 1u);
  sim.run_to_completion();
  EXPECT_EQ(seen, 99);
}

// ---------------------------------------------------------------------------
// Determinism: identical firing order across two runs with interleaved
// cancels driven by a seeded RNG.
// ---------------------------------------------------------------------------

std::vector<std::pair<SimTime, int>> run_cancel_storm(std::uint64_t seed) {
  Simulator sim(seed);
  Rng rng = sim.make_rng("storm");
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<EventHandle> handles;
  int id = 0;
  std::function<void()> churn = [&] {
    // Each tick: schedule a few events across all layers, cancel a few
    // random outstanding ones.
    for (int k = 0; k < 4; ++k) {
      const SimTime when =
          sim.now() + static_cast<SimDuration>(rng.next_u64() % msec(20));
      const int my_id = id++;
      handles.push_back(
          sim.at(when, [&fired, &sim, my_id] {
            fired.emplace_back(sim.now(), my_id);
          }));
    }
    for (int k = 0; k < 2 && !handles.empty(); ++k) {
      const size_t victim = rng.next_u64() % handles.size();
      handles[victim].cancel();
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (sim.now() < msec(50)) sim.after(usec(37), churn);
  };
  sim.after(0, churn);
  sim.run_until(msec(80));
  return fired;
}

TEST(EventCore, DeterministicOrderAcrossRunsWithInterleavedCancels) {
  const auto run1 = run_cancel_storm(1234);
  const auto run2 = run_cancel_storm(1234);
  ASSERT_FALSE(run1.empty());
  EXPECT_EQ(run1, run2);
}

// ---------------------------------------------------------------------------
// Randomized differential test: the calendar queue against a trivially
// correct reference model (stable sort by (when, seq)).
// ---------------------------------------------------------------------------

TEST(EventCore, MatchesReferenceModelUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim(seed);
    Rng rng = sim.make_rng("fuzz");
    struct Ref {
      SimTime when;
      int id;
      bool cancelled = false;
    };
    std::vector<Ref> ref;
    std::vector<EventHandle> handles;
    std::vector<int> fired;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t op = rng.next_u64() % 100;
      if (op < 70 || ref.empty()) {
        // Mix of near (same µs), wheel (< 1ms) and far (up to 2s) times.
        const std::uint64_t r = rng.next_u64();
        SimDuration d;
        if (r % 3 == 0) {
          d = static_cast<SimDuration>(r % 1000);
        } else if (r % 3 == 1) {
          d = static_cast<SimDuration>(r % msec(1));
        } else {
          d = static_cast<SimDuration>(r % sec(2));
        }
        const int my_id = static_cast<int>(ref.size());
        ref.push_back(Ref{static_cast<SimTime>(d), my_id});
        handles.push_back(sim.at(d, [&fired, my_id] {
          fired.push_back(my_id);
        }));
      } else {
        const size_t victim = rng.next_u64() % ref.size();
        if (!ref[victim].cancelled) {
          ref[victim].cancelled = true;
          handles[static_cast<size_t>(ref[victim].id)].cancel();
        }
      }
    }
    sim.run_to_completion();
    // Reference: stable sort the live events by (when, insertion order).
    std::vector<Ref> expect_refs;
    for (const Ref& r : ref) {
      if (!r.cancelled) expect_refs.push_back(r);
    }
    std::stable_sort(expect_refs.begin(), expect_refs.end(),
                     [](const Ref& a, const Ref& b) { return a.when < b.when; });
    std::vector<int> expect;
    for (const Ref& r : expect_refs) expect.push_back(r.id);
    EXPECT_EQ(fired, expect) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Differential test across wheel levels: callbacks schedule and cancel
// while the clock advances, with delays at every level boundary, replayed
// against a reference ordered by (when, seq).
// ---------------------------------------------------------------------------

namespace levels {

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();

/// Delays at every wheel-level boundary, 2^(12+8k) ns ± one 4096-ns
/// bucket for k = 0..6, plus same-bucket delays.
SimDuration boundary_delay(Rng& rng) {
  const std::uint64_t r = rng.next_u64();
  if (r % 8 == 0) return static_cast<SimDuration>((r >> 8) % 4096);
  const int k = static_cast<int>((r >> 3) % 7);
  constexpr SimDuration kOffsets[] = {-4096, -1, 0, 1, 4096};
  return (SimDuration{1} << (12 + 8 * k)) + kOffsets[(r >> 16) % 5];
}

/// The script both queues replay: each fire logs (now, id), then
/// schedules one or two children and sometimes cancels a random
/// outstanding event. Both replays draw the same numbers as long as they
/// fire the same events in the same order.
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(Rng::stream(seed, "levels")) {}

  template <typename Queue>
  void on_fire(Queue& q, int id, SimTime now) {
    log.emplace_back(now, id);
    forget(id);
    const int children = budget_ > 0 ? 1 + static_cast<int>(rng_.next_u64() % 2) : 0;
    for (int c = 0; c < children; ++c) schedule(q, now);
    if (!outstanding_.empty() && rng_.next_u64() % 3 == 0) {
      const int victim =
          outstanding_[rng_.next_u64() % outstanding_.size()];
      if (when_[static_cast<std::size_t>(victim)] - now >= SimDuration{1} << 20) {
        ++far_cancels;  // >= 256 buckets ahead: filed above level 0
      }
      q.cancel(victim);
      forget(victim);
    }
  }

  /// Schedules one event `boundary_delay` after `now`, clamped to the
  /// largest SimTime.
  template <typename Queue>
  void schedule(Queue& q, SimTime now) {
    const SimDuration d = boundary_delay(rng_);
    const SimTime when = d > kMaxTime - now ? kMaxTime : now + d;
    const int id = static_cast<int>(when_.size());
    when_.push_back(when);
    pos_.push_back(outstanding_.size());
    outstanding_.push_back(id);
    --budget_;
    q.schedule(when, id);
  }

  SimDuration next_span() { return boundary_delay(rng_); }

  std::vector<std::pair<SimTime, int>> log;
  int far_cancels = 0;

 private:
  void forget(int id) {
    const std::size_t at = pos_[static_cast<std::size_t>(id)];
    const int last = outstanding_.back();
    outstanding_[at] = last;
    pos_[static_cast<std::size_t>(last)] = at;
    outstanding_.pop_back();
  }

  Rng rng_;
  int budget_ = 6000;
  std::vector<SimTime> when_;
  std::vector<std::size_t> pos_;
  std::vector<int> outstanding_;
};

/// The production queue behind Simulator.
struct WheelQueue {
  Simulator sim;
  Script& script;
  std::vector<EventHandle> handles;

  void schedule(SimTime when, int id) {
    handles.resize(static_cast<std::size_t>(id) + 1);
    handles[static_cast<std::size_t>(id)] =
        sim.at(when, [this, id] { script.on_fire(*this, id, sim.now()); });
  }
  void cancel(int id) { handles[static_cast<std::size_t>(id)].cancel(); }
  SimTime run_until(SimTime deadline) {
    sim.run_until(deadline);
    return sim.now();
  }
};

/// The reference: an ordered set keyed by (when, seq).
struct ReferenceQueue {
  Script& script;
  std::set<std::tuple<SimTime, std::uint64_t, int>> pending;
  std::vector<std::tuple<SimTime, std::uint64_t, int>> key_of;
  SimTime now = 0;

  void schedule(SimTime when, int id) {
    key_of.emplace_back(when, key_of.size(), id);
    pending.insert(key_of.back());
  }
  void cancel(int id) { pending.erase(key_of[static_cast<std::size_t>(id)]); }
  SimTime run_until(SimTime deadline) {
    while (!pending.empty() && std::get<0>(*pending.begin()) <= deadline) {
      const auto [when, seq, id] = *pending.begin();
      pending.erase(pending.begin());
      now = when;
      script.on_fire(*this, id, now);
    }
    now = std::max(now, deadline);
    return now;
  }
};

/// Seeds a few events, then runs in spans of boundary-sized length; at
/// each span end (the clock at the deadline, the cursor possibly already
/// past it) the script schedules one more event from outside any
/// callback. Ends by draining the queue.
template <typename Queue>
void replay(Queue& q, Script& script) {
  SimTime now = 0;
  for (int i = 0; i < 16; ++i) script.schedule(q, now);
  for (int step = 0; step < 400; ++step) {
    const SimDuration span = script.next_span();
    now = q.run_until(span > kMaxTime - now ? kMaxTime : now + span);
    script.schedule(q, now);
  }
  q.run_until(kMaxTime);
}

TEST(EventCore, MatchesReferenceAcrossWheelLevelsWhileClockAdvances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Script wheel_script(seed);
    WheelQueue wheel{Simulator(seed), wheel_script, {}};
    replay(wheel, wheel_script);
    Script ref_script(seed);
    ReferenceQueue ref{ref_script, {}, {}, 0};
    replay(ref, ref_script);

    ASSERT_FALSE(ref_script.log.empty());
    EXPECT_EQ(wheel_script.log, ref_script.log) << "seed " << seed;
    EXPECT_EQ(wheel.sim.queue().size(), 0u);
    const EventQueueStats& stats = wheel.sim.queue().stats();
    EXPECT_GT(stats.far_hits, 0u);
    EXPECT_GT(stats.cascades, 0u);
    EXPECT_GT(wheel_script.far_cancels, 0) << "no level >= 1 cancel";
    // The clock reached the top wheel level.
    EXPECT_GE(ref_script.log.back().first, SimTime{1} << (12 + 8 * 6))
        << "seed " << seed;
  }
}

}  // namespace levels

// ---------------------------------------------------------------------------
// Perf counters
// ---------------------------------------------------------------------------

TEST(EventCore, StatsCountersTrackScheduleCancelFireAndLayers) {
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  sim.at(0, [] {});                      // near (bucket 0)
  sim.at(usec(100), [] {});              // wheel level 0
  EventHandle far = sim.at(sec(4), [] {});  // wheel level 2
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.near_hits, 1u);
  EXPECT_EQ(stats.wheel_hits, 1u);
  EXPECT_EQ(stats.far_hits, 1u);
  EXPECT_EQ(stats.peak_live, 3u);
  far.cancel();
  EXPECT_EQ(stats.cancelled, 1u);
  sim.run_to_completion();
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(stats.boxed_callbacks, 0u);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations (this binary links es2_alloc_hook)
// ---------------------------------------------------------------------------

TEST(EventCore, SteadyStateScheduleCancelFireAllocatesNothing) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(1024);
  // One churn round exercises every layer: same-instant defers, level-0
  // and level-2 wheel inserts, cancels of each, fires of the rest.
  auto churn = [&] {
    for (int i = 0; i < 1000; ++i) {
      sim.after(static_cast<SimDuration>(i % 200) * usec(1) + 1, [] {});
      handles.push_back(sim.after(sec(2), [] {}));
    }
    for (EventHandle& h : handles) h.cancel();
    handles.clear();  // keeps capacity
    sim.run_for(msec(1));
  };

  // Warm up: grow the slab pool, heaps, wheel lists and handle vector.
  for (int round = 0; round < 4; ++round) churn();

  test::AllocationCounter counter;
  for (int round = 0; round < 8; ++round) churn();
  sim.run_to_completion();
  EXPECT_EQ(counter.delta(), 0)
      << "steady-state schedule/cancel/fire must not allocate";
  EXPECT_EQ(sim.queue().stats().boxed_callbacks, 0u);
  EXPECT_GT(sim.queue().stats().fired, 0u);
}


// ---------------------------------------------------------------------------
// Continuation: move-only inline callable with a pooled oversize path
// ---------------------------------------------------------------------------

namespace continuation {

static_assert(!std::is_copy_constructible_v<Continuation>);
static_assert(std::is_nothrow_move_constructible_v<Continuation>);

TEST(Continuation, MoveOnlyCapturesAndMoveTransfersOwnership) {
  auto owned = std::make_unique<int>(5);
  int seen = 0;
  Continuation a = [&seen, p = std::move(owned)] { seen = *p; };
  ASSERT_TRUE(a);
  Continuation b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(seen, 5);
  b();  // invoking does not consume the callable
  EXPECT_EQ(seen, 5);
}

TEST(Continuation, DestroysCaptureOnResetReassignAndDestruction) {
  auto payload = std::make_shared<int>(1);
  {
    Continuation c = [keep = payload] { (void)*keep; };
    EXPECT_EQ(payload.use_count(), 2);
    c.reset();
    EXPECT_EQ(payload.use_count(), 1);
    c = [keep = payload] { (void)*keep; };
    EXPECT_EQ(payload.use_count(), 2);
    c = Continuation([] {});
    EXPECT_EQ(payload.use_count(), 1);
    c = [keep = payload] { (void)*keep; };
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Continuation, ArgumentsReachTheCallable) {
  InlineCallback<void(bool)> done = [](bool) {};
  bool got = false;
  done = [&got](bool requeue) { got = requeue; };
  done(true);
  EXPECT_TRUE(got);
}

TEST(Continuation, OversizeCapturesUseThePoolNotTheHeap) {
  struct Big {
    std::array<std::int64_t, 16> words{};  // 128 bytes
  };
  static_assert(!Continuation::fits_inline<Big>);
  auto payload = std::make_shared<int>(3);
  std::int64_t seen = 0;
  auto make = [&] {
    Big big;
    big.words[9] = 41;
    return Continuation([big, keep = payload, &seen] {
      seen = big.words[9] + *keep - 2;
    });
  };
  make()();  // warms this size class's free list
  test::AllocationCounter counter;
  for (int i = 0; i < 100; ++i) {
    Continuation c = make();
    Continuation moved = std::move(c);  // a box moves by pointer
    moved();
  }
  EXPECT_EQ(counter.delta(), 0) << "boxed continuations come from the pool";
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(payload.use_count(), 1) << "every box was destroyed";
}

TEST(Continuation, NestedContinuationIsBoxedAndReleasedWithItsOwner) {
  // The guest driver's done-chains: a continuation capturing another.
  auto payload = std::make_shared<int>(0);
  int calls = 0;
  Continuation inner = [keep = payload, &calls] { ++calls; };
  auto outer_fn = [inner = std::move(inner), &calls]() mutable {
    ++calls;
    inner();
  };
  static_assert(!Continuation::fits_inline<decltype(outer_fn)>);
  {
    Continuation outer = std::move(outer_fn);
    EXPECT_EQ(payload.use_count(), 2);
    outer();
    EXPECT_EQ(calls, 2);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Continuation, CancelledEventDestroysCapturedContinuation) {
  Simulator sim;
  auto payload = std::make_shared<int>(0);
  Continuation c = [keep = payload] { (void)*keep; };
  EventHandle h = sim.after(usec(5), [c = std::move(c)] { c(); });
  EXPECT_EQ(payload.use_count(), 2);
  h.cancel();
  EXPECT_EQ(payload.use_count(), 1) << "cancel destroys the closure now";
  EXPECT_EQ(sim.queue().stats().boxed_callbacks, 0u);
}

TEST(Continuation, ThrowingContinuationIsStillDestroyed) {
  Simulator sim;
  auto payload = std::make_shared<int>(0);
  Continuation c = [keep = payload] { throw std::runtime_error("boom"); };
  sim.after(usec(1), [c = std::move(c)] { c(); });
  EXPECT_THROW(sim.run_to_completion(), std::runtime_error);
  EXPECT_EQ(payload.use_count(), 1) << "closure destroyed during unwind";
  EXPECT_EQ(sim.queue().size(), 0u);
}

}  // namespace continuation

// ---------------------------------------------------------------------------
// PacketPtr: intrusive, pooled, non-atomic shared handle
// ---------------------------------------------------------------------------

namespace packets {

Packet sample_packet() {
  Packet p;
  p.proto = Proto::kTcp;
  p.flow = 77;
  p.payload = 1000;
  p.wire_size = 1054;
  p.seq = 123456;
  p.ack_seq = 99;
  p.flags.syn = true;
  p.flags.ack = true;
  p.sent_at = 4242;
  p.probe_id = 31;
  return p;
}

TEST(PacketPtr, DuplicatesShareOneNodeUntilTheLastHandleGoes) {
  PacketPtr original = make_packet(sample_packet());
  EXPECT_EQ(original.use_count(), 1);
  // Fault-injected duplication delivers the same packet twice.
  PacketPtr dup = original;
  EXPECT_EQ(original.use_count(), 2);
  EXPECT_EQ(dup.get(), original.get());
  {
    std::vector<PacketPtr> wire{original, dup};
    EXPECT_EQ(original.use_count(), 4);
  }
  EXPECT_EQ(original.use_count(), 2);
  PacketPtr moved = std::move(dup);
  EXPECT_EQ(dup, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(original.use_count(), 2);
  moved.reset();
  EXPECT_EQ(original.use_count(), 1);
  EXPECT_EQ(original->flow, 77u);
  PacketPtr null;
  EXPECT_FALSE(null);
  EXPECT_EQ(null.use_count(), 0);
}

TEST(PacketPtr, SteadyStateCreationAllocatesNothing) {
  make_packet(sample_packet());  // warms the node size class
  test::AllocationCounter counter;
  std::int64_t sum = 0;
  for (int i = 0; i < 1000; ++i) {
    PacketPtr p = make_packet(sample_packet());
    PacketPtr q = p;
    sum += q->payload;
  }
  EXPECT_EQ(counter.delta(), 0);
  EXPECT_EQ(sum, 1000 * 1000);
}

TEST(PacketPtr, SnapshotRoundTripOfDuplicatedPackets) {
  PacketPtr p = make_packet(sample_packet());
  PacketPtr dup = p;
  Virtqueue vq("snap", 8);
  ASSERT_TRUE(vq.add_avail({p, p->wire_size}));
  ASSERT_TRUE(vq.add_avail({dup, dup->wire_size}));
  ASSERT_TRUE(vq.add_avail({nullptr, 0}));
  SnapshotWriter w;
  w.begin_section("vq");
  vq.snapshot_state(w);
  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize()));
  ASSERT_TRUE(r.seek("vq"));
  EXPECT_EQ(r.get_u32(), 8u);  // capacity
  EXPECT_EQ(r.get_u32(), 3u);  // avail entries, FIFO order
  const Packet want = sample_packet();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(r.get_bool());
    EXPECT_EQ(r.get_u8(), static_cast<std::uint8_t>(want.proto));
    EXPECT_EQ(r.get_u64(), want.flow);
    EXPECT_EQ(r.get_i64(), want.wire_size);
    EXPECT_EQ(r.get_i64(), want.payload);
    EXPECT_EQ(r.get_u64(), want.seq);
    EXPECT_EQ(r.get_u64(), want.ack_seq);
    EXPECT_TRUE(r.get_bool());
    EXPECT_TRUE(r.get_bool());
    EXPECT_FALSE(r.get_bool());
    EXPECT_EQ(r.get_i64(), want.sent_at);
    EXPECT_EQ(r.get_u64(), want.probe_id);
    EXPECT_EQ(r.get_i64(), want.wire_size);  // entry length
  }
  EXPECT_FALSE(r.get_bool());  // empty receive buffer
  EXPECT_EQ(r.get_i64(), 0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(p.use_count(), 4);  // two handles + two ring entries
}

}  // namespace packets

// ---------------------------------------------------------------------------
// Whole cells: the measured span after warmup allocates nothing
// ---------------------------------------------------------------------------

namespace cells {

TestbedOptions cell_options(const Es2Config& config, bool macro) {
  TestbedOptions o;
  o.config = config;
  o.num_vms = macro ? 4 : 1;
  o.vcpus_per_vm = macro ? 4 : 1;
  o.stack_vms = macro;
  o.vhost_core = 4;
  return o;
}

struct SpanCounts {
  std::int64_t allocs = 0;
  std::int64_t tx_queue_stops = 0;
};

/// Allocations over 200 ms after a 200 ms warmup of a netperf stream with
/// `threads` flows (the stream runners' world: testbed, sampler, every
/// endpoint).
SpanCounts stream_span(const Es2Config& config, bool macro, bool vm_sends,
                       Proto proto, int threads = 1) {
  Testbed tb(cell_options(config, macro));
  std::vector<std::unique_ptr<NetperfSender>> senders;
  std::vector<std::unique_ptr<PeerStreamReceiver>> peer_rx;
  std::vector<std::unique_ptr<NetperfReceiver>> guest_rx;
  std::vector<std::unique_ptr<PeerStreamSender>> peer_tx;
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t flow = 100 + static_cast<std::uint64_t>(t);
    if (vm_sends) {
      senders.push_back(std::make_unique<NetperfSender>(
          tb.guest(), tb.frontend(), flow, proto, 1024,
          t % tb.tested_vm().num_vcpus()));
      tb.guest().add_task(*senders.back());
      peer_rx.push_back(
          std::make_unique<PeerStreamReceiver>(tb.peer(), flow, proto));
    } else {
      guest_rx.push_back(std::make_unique<NetperfReceiver>(
          tb.guest(), tb.frontend(), flow, proto));
      PeerStreamSender::Params p;
      p.proto = proto;
      p.udp_rate_pps /= threads;
      peer_tx.push_back(
          std::make_unique<PeerStreamSender>(tb.peer(), flow, p));
    }
  }
  tb.start();
  for (auto& s : peer_tx) s->start();
  tb.sim().run_for(msec(200));
  const std::int64_t pkts_before = tb.vm_to_peer().packets_sent() +
                                   tb.peer_to_vm().packets_sent();
  const std::int64_t stops_before = tb.frontend().tx_queue_stops();
  test::AllocationCounter counter;
  tb.sim().run_for(msec(200));
  SpanCounts counts;
  counts.allocs = counter.delta();
  counts.tx_queue_stops = tb.frontend().tx_queue_stops() - stops_before;
  const std::int64_t pkts = tb.vm_to_peer().packets_sent() +
                            tb.peer_to_vm().packets_sent() - pkts_before;
  EXPECT_GT(pkts, 1000) << "the cell must carry traffic";
  EXPECT_EQ(tb.sim().queue().stats().boxed_callbacks, 0u);
  return counts;
}

TEST(WholeCellAllocations, MicroTcpSendBaselineAllocatesNothing) {
  EXPECT_EQ(
      stream_span(Es2Config::baseline(), false, true, Proto::kTcp).allocs, 0);
}

TEST(WholeCellAllocations, MicroUdpRecvPiHRAllocatesNothing) {
  EXPECT_EQ(
      stream_span(Es2Config::pi_h_r(), false, false, Proto::kUdp).allocs, 0);
}

TEST(WholeCellAllocations, MacroTcpRecvPiHRAllocatesNothing) {
  EXPECT_EQ(
      stream_span(Es2Config::pi_h_r(), true, false, Proto::kTcp).allocs, 0);
}

TEST(WholeCellAllocations, MacroTcpSendFourFlowsWithQueueStopsAllocatesNothing) {
  // Four senders keep the TX ring full: queue stops park tasks on the
  // frontend's waiter list and completions wake them, every few packets.
  const SpanCounts c = stream_span(Es2Config::baseline(), true, true,
                                   Proto::kTcp, /*threads=*/4);
  EXPECT_GT(c.tx_queue_stops, 0) << "the TX ring must fill";
  EXPECT_EQ(c.allocs, 0);
}

TEST(WholeCellAllocations, MitigatedStormCollapseIsBoundedByPoolGrowth) {
  // run_storm's world with the collapse ramp, shortened; the overload
  // ladder is armed. A storm drives pending SYN timers, in-flight packets
  // and continuations to new highs, so the event pool and the block pool
  // carve fresh slabs (and their index vectors and the near heap double),
  // and the pending table makes its one full-size reservation.
  // Nothing allocates per packet or per connection.
  TestbedOptions o = cell_options(Es2Config::pi_h_r(), false);
  o.guest_params.overload_mitigation = true;
  Testbed tb(o);
  ApacheCosts costs;
  costs.syn_backlog = 128;
  costs.accept_queue = 512;
  ApacheServer server(tb.guest(), tb.frontend(), /*base_flow=*/4000,
                      /*client_conns=*/1, /*workers=*/4, costs);
  StormShape shape;
  shape.base_rate = 4000;
  shape.peak_rate = 400000;
  shape.ramp_up = msec(100);
  shape.hold = msec(200);
  shape.ramp_down = msec(100);
  StormClient client(tb.peer(), server.listen_flow(), shape, msec(50), 5,
                     /*max_pending=*/65536, /*syn_payload=*/256);
  tb.start();
  tb.sim().run_for(msec(100));
  const std::uint64_t event_slabs_before =
      tb.sim().queue().stats().slabs_allocated;
  const std::size_t pool_slabs_before = pool::slabs_allocated();
  test::AllocationCounter counter;
  client.start();
  tb.sim().run_for(msec(600));
  client.stop();
  const std::int64_t allocs = counter.delta();
  const auto event_slabs = static_cast<std::int64_t>(
      tb.sim().queue().stats().slabs_allocated - event_slabs_before);
  const auto pool_slabs =
      static_cast<std::int64_t>(pool::slabs_allocated() - pool_slabs_before);
  const std::int64_t pkts = tb.peer_to_vm().packets_sent() +
                            tb.vm_to_peer().packets_sent();
  std::printf("storm collapse (mitigated): %lld allocations = %lld event "
              "slabs + %lld pool slabs + %lld other over %lld packets\n",
              static_cast<long long>(allocs),
              static_cast<long long>(event_slabs),
              static_cast<long long>(pool_slabs),
              static_cast<long long>(allocs - event_slabs - pool_slabs),
              static_cast<long long>(pkts));
  EXPECT_GT(client.attempted(), 10000) << "the storm must actually arrive";
  EXPECT_GT(tb.frontend().livelock_detections(), 0);
  // "Other" is the pending table's one reservation plus capacity
  // doublings, each logarithmic in its high-water mark: the near heap,
  // the event slab index, and the server's accept/backlog FIFOs (about 50
  // here, against ~480k packets).
  constexpr std::int64_t kReservationsAndDoublings = 96;
  EXPECT_LE(allocs, event_slabs + pool_slabs + kReservationsAndDoublings);
}

}  // namespace cells

}  // namespace
}  // namespace es2
