// Workloads, cells and the per-cell statistics the benchmark reads.
//
// A workload is a fixed list of cells; a cell is one runner call from
// harness/experiments.h at the benchmark seed. Everything here observes
// the simulator from outside: counts come from the Testbed metrics
// registry snapshot and the runner's result struct, host cost from timing
// the runner call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiments.h"

namespace perfbench {

class SpanRecorder;

enum class Stack { kBaseline, kPi, kPiH, kPiHR };
const char* stack_name(Stack stack);

struct CellSpec {
  std::string name;   // "<scenario>/<stack>", e.g. "tcp_send/pi_h_r"
  std::string scenario;
  Stack stack = Stack::kBaseline;
  bool storm = false;
  es2::ChaosStreamOptions stream;  // stream cells
  es2::StormOptions storm_opts;    // storm cells
  /// Simulated seconds inside the measured span.
  double measured_sim_s = 0;
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
};

const std::vector<std::string>& workload_names();
/// False for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload* out);

/// Named cumulative counts of one runner call (whole call: build, warmup,
/// measured span). Differences full - twin isolate the measured span.
using Counts = std::map<std::string, double>;

struct CellRun {
  double wall_s = 0;
  std::int64_t allocs = 0;
  Counts counts;
  es2::ExitBreakdown exits;  // stream cells: tested VM, measured window
  double goodput = 0;        // stream Mb/s or storm page Mb/s
  double packets_per_sec = 0;  // stream cells: delivered, measured window
  bool verdict_ok = true;    // watchdog verdict acceptable, audit clean
  std::string verdict;       // one line when not ok
  es2::StormResult storm;    // storm cells only
};

/// Runs one cell. `twin` runs the same cell with an empty measured span,
/// so full - twin is the measured span and the twin alone is set-up.
CellRun run_cell(const CellSpec& cell, bool twin, SpanRecorder* spans,
                 int cell_id);

/// Counts from a registry snapshot plus the runner's drop table.
Counts counts_of(const es2::MetricsData& metrics, const es2::DropCounts& drops);

/// Digest fields. `kOutputFields` are simulated outputs compared against
/// the recorded reference; `eventcore.fired` is a cost, so it is compared
/// only between same-seed runs of one build (an optimisation may lower it).
extern const std::vector<std::string> kOutputFields;
std::vector<double> digest_of(const Counts& counts, bool with_events);

/// Cell-level mechanism checks that hold at every seed. Empty when fine.
std::string mechanism_check(const CellSpec& cell, const CellRun& run);

}  // namespace perfbench
