// The hot-path trace probe. Model layers call
//
//   if (Tracer* tr = active_tracer(sim)) {
//     tr->emit(sim.now(), TraceKind::kKick, vm, vcpu, cpu, arg, corr);
//   }
//
// which costs one load and one branch when no tracer is attached or the
// attached one is disabled. Tracing is passive either way: no RNG draws,
// no scheduled events, so traced runs leave golden outputs bit-identical.
#pragma once

#include "sim/simulator.h"
#include "trace/trace.h"

namespace es2 {

/// The simulator's tracer when one is attached and enabled, else null.
inline Tracer* active_tracer(Simulator& sim) {
  Tracer* tracer = sim.tracer();
  return tracer != nullptr && tracer->enabled() ? tracer : nullptr;
}

}  // namespace es2
