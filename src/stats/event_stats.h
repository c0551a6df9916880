// Perf counters for the event core (see sim/event_queue.h).
//
// One struct per EventQueue, updated inline on the hot path (plain
// integer adds — a Simulator is single-threaded). `near_hits`,
// `wheel_hits` and `far_hits` show where the hierarchical timing wheel
// files schedules: near = due in the current bucket (straight to the
// small heap), wheel = O(1) insert into a level-0 slot (the next ~1 ms),
// far = O(1) insert into a level above 0, paid again by one `cascades`
// step per level the event later moves down.
#pragma once

#include <cstdint>

namespace es2 {

struct EventQueueStats {
  std::uint64_t scheduled = 0;        // schedule() calls
  std::uint64_t fired = 0;            // callbacks executed
  std::uint64_t cancelled = 0;        // live events cancelled
  std::uint64_t boxed_callbacks = 0;  // callables too big for inline buf
  std::uint64_t near_hits = 0;        // scheduled straight into near heap
  std::uint64_t wheel_hits = 0;       // scheduled into wheel level 0
  std::uint64_t far_hits = 0;         // scheduled above wheel level 0
  std::uint64_t cascades = 0;         // events moved down from level >= 1
  std::uint64_t heap_compactions = 0; // stale-key compaction passes
  std::uint64_t peak_live = 0;        // max concurrently scheduled events
  std::uint64_t slabs_allocated = 0;  // pool growth events (not steady state)

  /// Counts one schedule filed at wheel `level` (-1: the near heap).
  void count_placement(int level) {
    if (level < 0) {
      ++near_hits;
    } else if (level == 0) {
      ++wheel_hits;
    } else {
      ++far_hits;
    }
  }
};

}  // namespace es2
