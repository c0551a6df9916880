// The simulation kernel: a clock plus the event queue.
//
// Every model object holds a `Simulator&` and advances the world purely by
// scheduling callbacks. Events at one instant fire in scheduling order; an
// order can also be reserved now and used by an event filed later
// (`reserve_order` / `at_reserved`). One `Simulator` is one independent
// experiment; the harness runs many of them concurrently on worker
// threads, which is safe because a Simulator shares no mutable state with
// any other.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "base/assert.h"
#include "base/rng.h"
#include "base/units.h"
#include "sim/event_queue.h"
#include "snapshot/snapshot.h"

namespace es2 {

class Tracer;
class Profiler;

class Simulator : public Snapshottable {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  std::uint64_t seed() const { return seed_; }

  /// Derives a named deterministic RNG stream for one component.
  Rng make_rng(std::string_view label) const { return Rng::stream(seed_, label); }

  /// Schedules `fn` at absolute time `when` (must be >= now()).
  ///
  /// `fn` is stored inline in the pooled event record — no allocation.
  /// The static_assert enforces the inline budget for every model call
  /// site; a callable that genuinely needs more capture space can go
  /// through queue().schedule(), which boxes it in a pool block.
  template <typename F>
  EventHandle at(SimTime when, F&& fn) {
    static_assert(detail::EventCallback::fits_inline<std::decay_t<F>>,
                  "callback captures exceed the inline event buffer "
                  "(detail::kInlineCallbackCapacity); shrink the capture or "
                  "use queue().schedule() to accept a boxed callback");
    ES2_CHECK_MSG(when >= now_, "cannot schedule into the past");
    return queue_.schedule(when, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventHandle after(SimDuration delay, F&& fn) {
    ES2_CHECK_MSG(delay >= 0, "negative delay");
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` to run at the current time, after already-queued
  /// same-instant events (a "bottom half").
  template <typename F>
  EventHandle defer(F&& fn) {
    return at(now_, std::forward<F>(fn));
  }

  /// Takes the event order (sequence number) the next scheduled event
  /// would get, for an event that is known now but filed later with
  /// at_reserved().
  std::uint64_t reserve_order() { return queue_.reserve_order(); }

  /// Schedules `fn` at `when` (>= now()) under `order`, taken earlier by
  /// reserve_order() and used at most once. The event orders against
  /// same-instant events as if at() had been called at reservation time;
  /// firing is identical to that as long as it is filed before any event
  /// ordered after it has fired. This lets a model keep one timer on the
  /// head of a FIFO of constant-delay deadlines (apps/storm.cpp) instead
  /// of one event per entry, with byte-identical firing order.
  template <typename F>
  EventHandle at_reserved(SimTime when, std::uint64_t order, F&& fn) {
    static_assert(detail::EventCallback::fits_inline<std::decay_t<F>>,
                  "callback captures exceed the inline event buffer "
                  "(detail::kInlineCallbackCapacity)");
    ES2_CHECK_MSG(when >= now_, "cannot schedule into the past");
    return queue_.schedule_reserved(when, order, std::forward<F>(fn));
  }

  /// Runs events until the queue empties or the clock passes `deadline`.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline);

  /// Like run_until, but also stops after `max_events` events even if the
  /// clock has not reached `deadline`. This is the watchdog primitive: a
  /// same-timestamp livelock (an event endlessly rescheduling itself "now")
  /// never advances the clock, so only an event cap can regain control.
  /// When the cap stops the run early the clock is NOT advanced to the
  /// deadline. Returns the number of events executed.
  std::uint64_t run_until_capped(SimTime deadline, std::uint64_t max_events);

  /// Runs events for `span` from the current time.
  std::uint64_t run_for(SimDuration span) { return run_until(now_ + span); }

  /// Runs every remaining event (use only for tests with finite models).
  std::uint64_t run_to_completion();

  std::uint64_t events_executed() const { return events_executed_; }
  EventQueue& queue() { return queue_; }

  /// Event-path tracer attached to this world (not owned); null in
  /// untraced runs. The simulator itself never emits — it only carries the
  /// pointer so model layers and auditors can reach the tracer without
  /// threading it through every constructor.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Scoped profiler attached to this world (not owned); null in
  /// unprofiled runs. Same carrying-only contract as the tracer.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  Profiler* profiler() const { return profiler_; }

  /// Kernel state: clock, seed, executed-event count, live queue depth.
  /// Pending events themselves are not serialized (callbacks capture
  /// closures); restore is deterministic re-execution — see DESIGN.md §4f.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t seed_;
  std::uint64_t events_executed_ = 0;
  Tracer* tracer_ = nullptr;
  Profiler* profiler_ = nullptr;
};

/// Repeating timer helper built on Simulator::after.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimDuration period, std::function<void()> fn);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

 private:
  void arm();
  Simulator& sim_;
  SimDuration period_;
  std::function<void()> fn_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace es2
