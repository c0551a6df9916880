#include "trace/journey.h"

#include <unordered_map>

namespace es2 {

namespace {

void note(SimTime& landmark, SimTime t) {
  if (landmark < 0) landmark = t;
}

}  // namespace

std::vector<Journey> stitch_journeys(const std::vector<TraceRecord>& records) {
  std::vector<Journey> journeys;
  std::unordered_map<std::uint64_t, std::size_t> by_corr;
  by_corr.reserve(records.size() / 4 + 1);

  for (const TraceRecord& r : records) {
    if (r.corr == 0) continue;
    auto [it, inserted] = by_corr.try_emplace(r.corr, journeys.size());
    if (inserted) {
      journeys.emplace_back();
      journeys.back().corr = r.corr;
    }
    Journey& j = journeys[it->second];
    // Tracked independently: a journey's early records are backend-side
    // (vm known, vcpu not); the vcpu becomes known at dispatch.
    if (j.vm < 0 && r.vm >= 0) j.vm = r.vm;
    if (j.vcpu < 0 && r.vcpu >= 0) j.vcpu = r.vcpu;
    switch (r.kind) {
      case TraceKind::kKick:
        if (j.origin < 0) {
          j.origin = r.t;
          j.queue = static_cast<std::int16_t>(r.arg);
          j.tx_origin = (r.arg % 2) == 0;
        }
        break;
      case TraceKind::kWireRx:
        if (j.origin < 0) {
          j.origin = r.t;
          // kWireRx carries the pair index; the serviced queue is that
          // pair's RX queue.
          j.queue = static_cast<std::int16_t>(2 * r.arg + 1);
          j.tx_origin = false;
        }
        break;
      case TraceKind::kWorkerTurn:
        note(j.backend, r.t);
        if (j.queue < 0) j.queue = static_cast<std::int16_t>(r.arg);
        break;
      case TraceKind::kIrqSuppressed:
        note(j.suppressed, r.t);
        break;
      case TraceKind::kMsiRaise:
      case TraceKind::kPiPost:
      case TraceKind::kLapicPost:
        note(j.msi, r.t);
        break;
      case TraceKind::kIrqDispatch:
        note(j.dispatch, r.t);
        break;
      case TraceKind::kEoi:
        note(j.eoi, r.t);
        break;
      default:
        break;
    }
  }
  return journeys;
}

}  // namespace es2
