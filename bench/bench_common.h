// Shared helpers for the per-figure bench binaries.
//
// Every bench accepts `--fast` (shorter warmup/measure for smoke runs) and
// writes its series as CSV under bench/out/ next to printing a table with
// the paper's reference values for side-by-side comparison.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <system_error>
#include <utility>

#include "base/csv.h"
#include "base/strings.h"
#include "base/table.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "profile/blame_export.h"
#include "profile/prof_export.h"
#include "snapshot/state_hash.h"
#include "metrics/bench_schema.h"
#include "trace/export.h"
#include "trace/journey.h"

namespace es2::bench {

struct BenchArgs {
  bool fast = false;
  std::uint64_t seed = 1;
  std::string out_dir = "bench/out";
  /// --trace=<path>: run one representative cell with tracing on and
  /// export its event-path trace as Perfetto JSON to <path>.
  std::string trace_path;
  /// --trace-smoke: after exporting, re-read the file, validate the JSON
  /// and assert the blame budget is populated; exit nonzero otherwise.
  bool trace_smoke = false;
  /// --profile=<path>: run one representative cell with the scoped
  /// profiler on and export collapsed stacks (flamegraph input) to
  /// <path>, the es2-prof-v1 aggregate to <path>.json and — when the cell
  /// is also traced — the es2-blame-v1 latency-budget report to
  /// <path>.blame.json plus the raw ES2T trace to <path>.trace.bin
  /// (tools/latency_blame input).
  std::string profile_path;
  /// --hash-epochs=<path>: run one representative cell with epoch
  /// state-hashing on and export its es2-hash-v1 series to <path>
  /// (divergence-bisector input).
  std::string hash_path;
  /// --ckpt=<dir>: checkpoint each completed sweep cell into <dir>.
  /// --resume=<dir> additionally replays cells that already finished OK.
  std::string ckpt_dir;
  bool resume = false;
  /// --retries=N: bounded per-cell retries before a WATCHDOG row stands.
  int retries = 1;
  /// --die-after=N: crash-safety test hook — _Exit after N cells
  /// checkpoint (requires --ckpt).
  int die_after = 0;
};

namespace detail {

[[noreturn]] inline void usage_exit(const char* prog, const char* bad,
                                    std::initializer_list<const char*> own) {
  std::fprintf(stderr, "%s: unrecognized argument '%s'\n", prog, bad);
  std::fprintf(stderr,
               "usage: %s [--fast] [--seed=N] [--out=DIR] [--trace=PATH] "
               "[--trace-smoke]\n"
               "       [--profile=PATH] [--hash-epochs=PATH] [--ckpt=DIR] "
               "[--resume=DIR]\n"
               "       [--retries=N] [--die-after=N]",
               prog);
  for (const char* flag : own) std::fprintf(stderr, " [%s]", flag);
  std::fprintf(stderr, "\n(values attach with '=': --seed=3, not --seed 3)\n");
  std::exit(2);
}

/// Whole-string decimal parse; false on empty input, trailing junk or a
/// value `T` cannot hold.
template <typename T>
bool parse_number(const std::string& text, T* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || !std::in_range<T>(v)) return false;
  *out = static_cast<T>(v);
  return true;
}

}  // namespace detail

/// Parses the shared bench flags. `own` lists flags the bench reads from
/// argv itself (an entry ending in '_' accepts any flag with that
/// prefix). Anything else — an unknown or misspelled flag, or a value
/// passed as a separate argument (`--seed 3`) — prints usage and exits 2.
inline BenchArgs parse_args(int argc, char** argv,
                            std::initializer_list<const char*> own = {}) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&arg](const char* flag, std::string* out) {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return false;
      *out = arg.substr(n);
      return true;
    };
    if (take("--out=", &args.out_dir) || take("--trace=", &args.trace_path) ||
        take("--profile=", &args.profile_path) ||
        take("--hash-epochs=", &args.hash_path) ||
        take("--ckpt=", &args.ckpt_dir)) {
      continue;
    }
    std::string v;
    bool ok = true;
    if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--trace-smoke") {
      args.trace_smoke = true;
    } else if (take("--seed=", &v)) {
      ok = detail::parse_number(v, &args.seed);
    } else if (take("--resume=", &args.ckpt_dir)) {
      args.resume = true;
    } else if (take("--retries=", &v)) {
      ok = detail::parse_number(v, &args.retries);
    } else if (take("--die-after=", &v)) {
      ok = detail::parse_number(v, &args.die_after);
    } else {
      ok = std::any_of(own.begin(), own.end(), [&arg](const char* flag) {
        const std::size_t n = std::strlen(flag);
        return flag[n - 1] == '_' ? arg.compare(0, n, flag) == 0
                                  : arg == flag;
      });
    }
    if (!ok) detail::usage_exit(argv[0], argv[i], own);
  }
  return args;
}

/// Runner options carrying this bench's checkpoint/resume/retry flags.
inline RunnerOptions runner_options(const BenchArgs& args) {
  RunnerOptions o;
  o.checkpoint_dir = args.ckpt_dir;
  o.resume = args.resume;
  o.max_attempts = args.retries < 1 ? 1 : args.retries;
  o.die_after_cells = args.die_after;
  return o;
}

/// Observer request for the one bench cell elected as representative (the
/// "observed cell"): tracing for --trace, the profiler for --profile and
/// epoch hashing for --hash-epochs (no-op ObserveOptions when none was
/// given). Benches arm them on the same cell so the exports describe one
/// run.
inline ObserveOptions observe_request(const BenchArgs& args) {
  ObserveOptions o;
  o.trace.enabled = !args.trace_path.empty();
  o.trace.capacity = std::size_t{1} << 18;
  o.profile.enabled = !args.profile_path.empty();
  o.snapshot.hash_epochs = !args.hash_path.empty();
  return o;
}

/// Exports the traced cell's records and journey bars to --trace=<path>
/// as Perfetto JSON and prints its blame budget. When the cell was also
/// profiled, the profiler's span slices ride along as Perfetto "X" events
/// next to the journey bars. Returns false when --trace-smoke was
/// requested and the export failed validation (no records, invalid JSON,
/// empty budget).
inline bool export_trace(const BenchArgs& args, const TraceData* trace,
                         const ProfileData* profile) {
  if (args.trace_path.empty()) return true;
  if (trace == nullptr || trace->records.empty()) {
    std::printf("[trace requested but no records captured]\n");
    return !args.trace_smoke;
  }
  const std::vector<PerfettoSlice> prof_slices =
      profile != nullptr ? prof_perfetto_slices(*profile)
                         : std::vector<PerfettoSlice>{};
  const std::string json = to_perfetto_json(
      trace->records, stitch_journeys(trace->records), prof_slices);
  if (!write_file(args.trace_path, json)) {
    std::printf("[trace export to %s failed]\n", args.trace_path.c_str());
    return false;
  }
  const BlameBreakdown blame = blame_of(trace);
  const double delivery = blame.fraction(BlameComponent::kMsiDelivery) +
                          blame.fraction(BlameComponent::kVcpuWait);
  const double guest = blame.fraction(BlameComponent::kGuestService);
  std::printf(
      "[trace: %zu records, %lld journeys (%lld attributed) -> %s]\n"
      "[blame: end-to-end p50/p99 %lld/%lld ns; msi_delivery+vcpu_wait "
      "%.1f%%, guest_service %.1f%%]\n",
      trace->records.size(), static_cast<long long>(blame.journeys),
      static_cast<long long>(blame.complete), args.trace_path.c_str(),
      static_cast<long long>(blame.end_to_end.p50()),
      static_cast<long long>(blame.end_to_end.p99()), 100.0 * delivery,
      100.0 * guest);
  if (!args.trace_smoke) return true;
  std::string reread;
  if (!read_file(args.trace_path, &reread) || !json_valid(reread)) {
    std::printf("[trace smoke FAILED: exported JSON does not parse]\n");
    return false;
  }
  if (blame.complete <= 0 || blame.end_to_end.p50() <= 0 || delivery <= 0 ||
      guest <= 0) {
    std::printf("[trace smoke FAILED: blame budget not populated]\n");
    return false;
  }
  std::printf("[trace smoke ok]\n");
  return true;
}

/// Exports the hashed cell's es2-hash-v1 series to --hash-epochs=<path>.
/// Returns false only when the export was requested and failed.
inline bool export_hash_log(const BenchArgs& args, const HashSeries* series) {
  if (args.hash_path.empty()) return true;
  if (series == nullptr || series->entries.empty()) {
    std::printf("[--hash-epochs requested but no epochs recorded]\n");
    return false;
  }
  if (!write_file(args.hash_path, series->to_json_text())) {
    std::printf("[hash export to %s failed]\n", args.hash_path.c_str());
    return false;
  }
  std::printf("[epoch hashes: %zu epochs x %zu components -> %s]\n",
              series->entries.size(), series->component_names.size(),
              args.hash_path.c_str());
  return true;
}

/// Exports the profiled cell's data to --profile=<path>: collapsed stacks
/// at <path>, the es2-prof-v1 aggregate at <path>.json, and — when the
/// cell was also traced — the es2-blame-v1 latency-budget report at
/// <path>.blame.json plus the raw ES2T binary trace at <path>.trace.bin,
/// printing the per-component budget table. Returns false only when a
/// requested write failed.
inline bool export_profile(const BenchArgs& args, const ProfileData* profile,
                           const TraceData* trace) {
  if (args.profile_path.empty()) return true;
  if (profile == nullptr) {
    std::printf("[--profile requested but no profiler ran]\n");
    return false;
  }
  if (!write_file(args.profile_path,
                  prof_to_collapsed(*profile, CollapsedWeight::kSimNs))) {
    std::printf("[profile export to %s failed]\n", args.profile_path.c_str());
    return false;
  }
  if (!write_file(args.profile_path + ".json", prof_to_json_text(*profile))) {
    std::printf("[profile export to %s.json failed]\n",
                args.profile_path.c_str());
    return false;
  }
  std::printf("[profile: %zu span stats, %zu scope nodes, %zu slices -> %s]\n",
              profile->spans.size(), profile->nodes.size(),
              profile->slices.size(), args.profile_path.c_str());
  if (trace != nullptr && !trace->records.empty()) {
    const BlameBreakdown blame = blame_of(trace);
    if (!write_blame_file(args.profile_path + ".blame.json", blame)) {
      std::printf("[blame export to %s.blame.json failed]\n",
                  args.profile_path.c_str());
      return false;
    }
    if (!write_file(args.profile_path + ".trace.bin",
                    to_binary(trace->records))) {
      std::printf("[trace export to %s.trace.bin failed]\n",
                  args.profile_path.c_str());
      return false;
    }
    std::printf("%s", render_blame_markdown(blame_summary(blame)).c_str());
    std::printf("[blame: %lld journeys (%lld attributed) -> %s.blame.json]\n",
                static_cast<long long>(blame.journeys),
                static_cast<long long>(blame.complete),
                args.profile_path.c_str());
  }
  return true;
}

/// Writes every export the flags asked for (--trace, --profile,
/// --hash-epochs) from the representative cell's observations. Returns
/// false at the first requested export that failed.
inline bool export_observations(const BenchArgs& args,
                                const Observations& obs) {
  return export_trace(args, obs.trace.get(), obs.profile.get()) &&
         export_profile(args, obs.profile.get(), obs.trace.get()) &&
         export_hash_log(args, obs.hashes.get());
}

/// The observer flags for benches without a natural testbed cell (micro,
/// eventcore, related_work, dataplane): runs one short canonical stream
/// with the requested observers on and exports it. --profile also traces
/// the stream so its blame report has journeys. No-op without the flags.
inline bool export_standalone_observations(const BenchArgs& args) {
  ObserveOptions observe = observe_request(args);
  observe.trace.enabled |= observe.profile.enabled;
  if (!observe.trace.enabled && !observe.snapshot.hash_epochs) return true;
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.seed = args.seed;
  o.warmup = msec(100);
  o.measure = msec(400);
  o.observe = observe;
  return export_observations(args, run_stream(o));
}

inline void print_header(const char* id, const char* title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("ES2 reproduction (simulated testbed; compare shapes, not\n");
  std::printf("absolute numbers — see EXPERIMENTS.md)\n");
  std::printf("================================================================\n");
}

inline std::string count_str(double v) {
  return with_commas(static_cast<std::int64_t>(v));
}

inline void write_csv(const BenchArgs& args, const std::string& name,
                      const CsvWriter& csv) {
  const std::string path = args.out_dir + "/" + name + ".csv";
  if (csv.write_file(path)) {
    std::printf("[series written to %s]\n", path.c_str());
  }
}

/// Starts this bench's `BENCH_<name>.json` report, stamped with the run's
/// --fast/--seed so the gate can refuse incomparable comparisons.
inline BenchReport make_report(const BenchArgs& args, const std::string& name) {
  return BenchReport(name, args.fast, args.seed);
}

/// Writes the report to `<out_dir>/BENCH_<name>.json`. Every bench calls
/// this unconditionally — the JSON is the regression gate's input.
inline bool write_bench_report(const BenchArgs& args,
                               const BenchReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/BENCH_" + report.bench() + ".json";
  if (!report.write_file(path)) {
    std::printf("[could not write %s]\n", path.c_str());
    return false;
  }
  std::printf("[bench report written to %s]\n", path.c_str());
  return true;
}

}  // namespace es2::bench
