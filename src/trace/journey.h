// Journey stitcher: groups trace records into per-I/O-request journeys.
//
// A journey is every record sharing one correlation id, reduced to its
// landmark timestamps:
//
//   origin      guest kick or wire arrival
//   backend     first vhost handler turn that serviced it
//   suppressed  first interrupt-suppression decision (EVENT_IDX)
//   msi         MSI raise (or PI/LAPIC post for timer/IPI journeys)
//   dispatch    vector dispatched through the guest IDT
//   eoi         the matching EOI write
//
// Landmarks record the FIRST occurrence only — a coalesced journey keeps
// its earliest post — and any prefix may be missing (a timer interrupt has
// no kick; a suppressed TX interrupt has no msi/dispatch/eoi). The blame
// analyzer and the Perfetto journey bars both read these; this is the only
// place records are grouped by correlation id.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace es2 {

struct Journey {
  std::uint64_t corr = 0;
  std::int8_t vm = -1;
  std::int8_t vcpu = -1;
  /// Flat queue index of the origin (2*pair for TX kicks, 2*pair+1 for RX
  /// refill kicks and wire RX), else of the first turn; -1 when unknown.
  std::int16_t queue = -1;
  /// true when the journey began with a TX-side guest kick.
  bool tx_origin = false;
  // Landmark sim-times (ns); -1 = landmark never observed.
  SimTime origin = -1;
  SimTime backend = -1;
  SimTime suppressed = -1;
  SimTime msi = -1;
  SimTime dispatch = -1;
  SimTime eoi = -1;

  /// Earliest path landmark (origin, backend, msi, dispatch, eoi in path
  /// order), or -1 when none was observed.
  SimTime start() const {
    for (SimTime t : {origin, backend, msi, dispatch, eoi}) {
      if (t >= 0) return t;
    }
    return -1;
  }
};

/// Stitches `records` (any order) into journeys, ordered by first
/// appearance in the record stream. Records without a correlation id
/// (sched, wake, exit records) belong to no journey.
std::vector<Journey> stitch_journeys(const std::vector<TraceRecord>& records);

}  // namespace es2
