// The hot-path profiler probe, the twin of trace/hooks.h:
//
//   if (Profiler* pf = active_profiler(sim)) {
//     pf->span_begin(ProfComp::kVhostTurnTx, q, sim.now());
//   }
//
// One load and one branch when no profiler is attached or enabled.
// Profiling is passive: profiled runs leave golden outputs bit-identical.
#pragma once

#include "profile/profiler.h"
#include "sim/simulator.h"

namespace es2 {

/// The simulator's profiler when one is attached and enabled, else null.
inline Profiler* active_profiler(Simulator& sim) {
  Profiler* profiler = sim.profiler();
  return profiler != nullptr && profiler->enabled() ? profiler : nullptr;
}

}  // namespace es2
