// Isolated layer probes and the Testbed-level replica of one cell.
//
// A probe drives one layer's public API in a tight loop, outside any
// Testbed, and reports host ns and heap allocations per call. Each probe
// repeats its loop and keeps the median repetition.
#pragma once

#include <string>

#include "cells.h"

namespace perfbench {

class SpanRecorder;

struct ProbeCost {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// sim: Simulator::after + run_until churn over self-rescheduling chains.
ProbeCost probe_sim(SpanRecorder* spans);
/// cpu: CfsScheduler with 16 threads on 4 cores; cost per context switch.
ProbeCost probe_cfs(SpanRecorder* spans);
/// apic: post -> deliver -> EOI on the emulated LAPIC and the PI path.
ProbeCost probe_apic(SpanRecorder* spans);
/// virtio: one buffer round trip through a Virtqueue (split and packed).
ProbeCost probe_virtqueue(SpanRecorder* spans);
/// es2: InterruptRedirector::select_target on the 4x4 macro testbed.
ProbeCost probe_redirector(SpanRecorder* spans);
/// stats: Histogram::record.
ProbeCost probe_histogram(SpanRecorder* spans);

/// Host ns per iteration of a fixed, benchmark-owned loop shaped like
/// event-queue work: pop and re-push on a 4096-entry binary heap of
/// timestamps. It shares no code with the simulator, so no change to the
/// program can move it, while a slower or busier machine slows it much as
/// it slows the simulator.
double reference_kernel_ns();

/// The cell rebuilt from Testbed calls, so each harness phase can be timed
/// and the ES2 redirector read before teardown. `counts` must reproduce
/// the runner's counts for the same cell (checked by the caller).
struct ReplicaRun {
  double build_s = 0;     // Testbed construction + workload attach
  double warmup_s = 0;    // start + warmup span
  double measure_s = 0;   // measured span
  double harvest_s = 0;   // registry snapshot
  double teardown_s = 0;  // Testbed destruction
  Counts counts;
  double via_sticky = 0;
  double via_online = 0;
  double via_offline = 0;
  double tracker_transitions = 0;
};
ReplicaRun run_replica(const CellSpec& cell, SpanRecorder* spans, int cell_id);

}  // namespace perfbench
