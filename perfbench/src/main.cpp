// The repository benchmark: host cost and ES2 fidelity on three canonical
// workloads, with a per-layer ledger measured from outside the simulator.
//
//   es2_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--reference FILE] [--out DIR]
//   es2_perfbench --record FILE --seeds A-B
//   es2_perfbench --self-test [--reference FILE]
//
// A run repeats the workload's cells in rounds until --seconds have passed
// (at least two rounds). Each cell runs twice per round: in full, and as a
// "twin" whose measured span is empty; full - twin is the measured span
// and the twin alone is set-up. Host-time metrics are medians over rounds;
// simulated counts come from the first round and must repeat exactly in
// every later round and match the recorded reference for the seed. The
// last stdout line is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/strings.h"
#include "cells.h"
#include "paper.h"
#include "probes.h"
#include "spans.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Metric catalogue: every metric a run prints, by mode.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"sim_speed", "sim_s/s", "higher"},
    {"wall_ns_per_pkt", "ns", "lower"},
    {"events_per_pkt", "count", "lower"},
    {"allocs_per_pkt", "count", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"setup_s", "s", "lower"},
    {"es2_exit_cut_pct", "%", "higher"},
    {"es2_goodput_pct", "%", "higher"},
    {"paper_err_pct", "%", "lower"},
    {"storm_keep_x", "x", "higher"},
    {"cell_pass_pct", "%", "higher"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_pkt", "count", "lower"},
    {"sim.cancel_pct", "%", "lower"},
    {"sim.boxed_per_pkt", "count", "lower"},
    {"sim.far_per_pkt", "count", "lower"},
    {"sim.peak_live", "count", "lower"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.allocs_per_event", "count", "lower"},
    {"sim.est_ns_per_pkt", "ns", "lower"},
    {"cpu.ctx_switches_per_pkt", "count", "lower"},
    {"cpu.preemptions_per_pkt", "count", "lower"},
    {"cpu.ns_per_resched", "ns", "lower"},
    {"cpu.est_ns_per_pkt", "ns", "lower"},
    {"vm.exits_per_pkt.delivery", "count", "lower"},
    {"vm.exits_per_pkt.completion", "count", "lower"},
    {"vm.exits_per_pkt.io", "count", "lower"},
    {"vm.exits_per_pkt.other", "count", "lower"},
    {"vm.tig_pct", "%", "higher"},
    {"vm.irqs_per_pkt", "count", "lower"},
    {"vm.paper_err_calibration_pct", "%", "lower"},
    {"vm.paper_err_heldout_pct", "%", "lower"},
    {"apic.lapic_posts_per_pkt", "count", "lower"},
    {"apic.pi_posts_per_pkt", "count", "lower"},
    {"apic.pi_notifications_per_pkt", "count", "lower"},
    {"apic.eois_per_pkt", "count", "lower"},
    {"apic.ns_per_post", "ns", "lower"},
    {"apic.est_ns_per_pkt", "ns", "lower"},
    {"virtio.vq_added_per_pkt", "count", "lower"},
    {"virtio.irq_enables_per_pkt", "count", "lower"},
    {"virtio.notify_enables_per_pkt", "count", "lower"},
    {"virtio.ns_per_ring_op", "ns", "lower"},
    {"virtio.allocs_per_ring_op", "count", "lower"},
    {"virtio.est_ns_per_pkt", "ns", "lower"},
    {"vhost.turns_per_pkt", "count", "lower"},
    {"vhost.wakeups_per_pkt", "count", "lower"},
    {"vhost.quota_hits_per_pkt", "count", "lower"},
    {"vhost.mode_reverts", "count", "lower"},
    {"vhost.irqs_per_pkt", "count", "lower"},
    {"vhost.poll_useful_pct", "%", "higher"},
    {"guest.kicks_per_pkt", "count", "lower"},
    {"guest.napi_polled_per_pkt", "count", "higher"},
    {"guest.tx_queue_stops", "count", "lower"},
    {"guest.livelock_detections", "count", "lower"},
    {"guest.ksoftirqd_defers", "count", "lower"},
    {"net.pkts", "count", "higher"},
    {"net.drops_pct.wire", "%", "lower"},
    {"net.drops_pct.backpressure", "%", "lower"},
    {"net.drops_pct.sock_backlog", "%", "lower"},
    {"net.drops_pct.syn_backlog", "%", "lower"},
    {"net.drops_pct.accept_queue", "%", "lower"},
    {"net.drops_pct.accept_shed", "%", "lower"},
    {"net.drops_pct.worker_queue", "%", "lower"},
    {"apps.established_pct", "%", "higher"},
    {"apps.retries_per_conn", "count", "lower"},
    {"apps.abandoned", "count", "lower"},
    {"apps.connect_p99_ms", "ms", "lower"},
    {"es2.redirect_sticky_per_irq", "count", "higher"},
    {"es2.redirect_online_per_irq", "count", "higher"},
    {"es2.redirect_offline_per_irq", "count", "lower"},
    {"es2.tracker_transitions_per_pkt", "count", "lower"},
    {"es2.ns_per_select", "ns", "lower"},
    {"es2.est_ns_per_pkt", "ns", "lower"},
    {"fault.episodes", "count", "lower"},
    {"fault.recovered_pct", "%", "higher"},
    {"fault.mttr_p99_ms", "ms", "lower"},
    {"harness.build_ms", "ms", "lower"},
    {"harness.warmup_s", "s", "lower"},
    {"harness.measure_s", "s", "lower"},
    {"harness.harvest_ms", "ms", "lower"},
    {"harness.teardown_ms", "ms", "lower"},
    {"harness.replica_match", "count", "higher"},
    {"harness.reference_checked", "count", "higher"},
    {"stats.ns_per_record", "ns", "lower"},
    {"metrics.sampler_frames", "count", "lower"},
    {"host.kernel_ns", "ns", "lower"},
    {"host.sim_speed_raw", "sim_s/s", "higher"},
    {"host.wall_ns_per_pkt", "ns", "lower"},
    {"host.est_ns_per_pkt", "ns", "lower"},
    {"host.unattributed_ns_per_pkt", "ns", "lower"},
    {"trace.sim_speed_traced", "sim_s/s", "higher"},
    {"trace.sim_speed_untraced", "sim_s/s", "higher"},
    {"trace.overhead_pct", "%", "lower"},
    {"trace.spans", "count", "lower"},
};

/// The machine speed end-to-end host times are reported at. On a 4-core
/// x86-64 cloud host shared with other tenants, reference_kernel_ns() read
/// from 66 to 93 ns as their load came and went, and the simulator's raw
/// speed moved with it by up to 1.5x. Each round's times are scaled by
/// nominal / measured, which cancels most of that drift; a change to the
/// simulator cannot move the kernel, so it moves the scaled times one for
/// one.
constexpr double kNominalKernelNs = 100;

/// Stand-in for a metric that has no meaning on a workload (a ratio with
/// an empty base, a storm-only latency on a stream workload).
constexpr double kNotApplicable = -1;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: es2_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                     [--reference FILE] [--out DIR]\n"
    "       es2_perfbench --record FILE --seeds A-B\n"
    "       es2_perfbench --self-test [--reference FILE]\n"
    "  workloads: micro_stream macro_stream storm_collapse\n"
    "  values may be given as --flag VALUE or --flag=VALUE\n";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string reference;
  std::string out = ".";
  std::string record;
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 0;
  bool self_test = false;
};

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  *out = v;
  return true;
}

/// Strict parser: every token must be a known flag or its value; a flag
/// may appear once. Returns an error message, empty on success.
std::string parse_args(int argc, char** argv, Args* a) {
  const std::vector<std::string> valued = {"--workload", "--seed",   "--seconds",
                                           "--trace",    "--reference", "--out",
                                           "--record",   "--seeds"};
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok == "--self-test") {
      if (seen.count(tok)) return "duplicate flag " + tok;
      seen[tok] = "";
      continue;
    }
    std::string value;
    bool has_value = false;
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      value = tok.substr(eq + 1);
      tok = tok.substr(0, eq);
      has_value = true;
    }
    if (std::find(valued.begin(), valued.end(), tok) == valued.end()) {
      return "unknown argument '" + std::string(argv[i]) + "'";
    }
    if (!has_value) {
      if (i + 1 >= argc) return "missing value for " + tok;
      value = argv[++i];
    }
    if (value.empty()) return "empty value for " + tok;
    if (seen.count(tok)) return "duplicate flag " + tok;
    seen[tok] = value;
  }
  a->self_test = seen.count("--self-test") > 0;
  if (seen.count("--reference")) a->reference = seen["--reference"];
  if (seen.count("--out")) a->out = seen["--out"];
  if (seen.count("--record")) {
    a->record = seen["--record"];
    const std::string& r = seen["--seeds"];
    const std::size_t dash = r.find('-');
    if (dash == std::string::npos || !parse_u64(r.substr(0, dash), &a->seed_lo) ||
        !parse_u64(r.substr(dash + 1), &a->seed_hi) || a->seed_lo > a->seed_hi) {
      return "--record needs --seeds A-B";
    }
    return seen.size() == 2 ? "" : "--record takes only --seeds";
  }
  if (seen.count("--seeds")) return "--seeds is only valid with --record";
  if (a->self_test) {
    for (const auto& [k, v] : seen) {
      if (k != "--self-test" && k != "--reference") return k + " is not valid with --self-test";
    }
    return "";
  }
  for (const char* need : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!seen.count(need)) return std::string("missing ") + need;
  }
  a->workload = seen["--workload"];
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a->workload) == names.end()) {
    return "unknown workload '" + a->workload + "'";
  }
  std::uint64_t v = 0;
  if (!parse_u64(seen["--seed"], &a->seed)) return "--seed must be a non-negative integer";
  if (!parse_u64(seen["--seconds"], &v) || v < 1 || v > 600) {
    return "--seconds must be an integer in 1..600";
  }
  a->seconds = static_cast<int>(v);
  const std::string& t = seen["--trace"];
  if (t != "0" && t != "1") return "--trace must be 0 or 1";
  a->trace = t == "1" ? 1 : 0;
  return "";
}

// ---------------------------------------------------------------------------
// Recorded reference digests
// ---------------------------------------------------------------------------

/// seed -> cell key ("<workload>/<cell>") -> output digest values.
using Reference = std::map<std::uint64_t, std::map<std::string, std::vector<double>>>;

bool read_text(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string load_reference(const std::string& path, Reference* ref) {
  std::string text;
  if (!read_text(path, &text)) return "cannot read reference " + path;
  es2::Json j;
  std::string error;
  if (!es2::Json::parse(text, &j, &error)) return "bad reference JSON: " + error;
  const es2::Json* fields = j.find("fields");
  if (fields == nullptr || fields->size() != kOutputFields.size()) {
    return "reference fields do not match this benchmark";
  }
  for (std::size_t i = 0; i < fields->size(); ++i) {
    if (fields->at(i).as_string() != kOutputFields[i]) {
      return "reference fields do not match this benchmark";
    }
  }
  const es2::Json* seeds = j.find("seeds");
  if (seeds == nullptr || !seeds->is_object()) return "reference has no seeds";
  for (const auto& [seed_text, cells] : seeds->members()) {
    std::uint64_t seed = 0;
    if (!parse_u64(seed_text, &seed)) return "bad seed key " + seed_text;
    for (const auto& [cell, values] : cells.members()) {
      std::vector<double> v;
      for (std::size_t i = 0; i < values.size(); ++i) v.push_back(values.at(i).as_number());
      (*ref)[seed][cell] = std::move(v);
    }
  }
  return "";
}

/// Names each output field that differs; empty when equal.
std::string digest_diff(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return "digest length differs";
  std::string diff;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    const std::string field = i < kOutputFields.size() ? kOutputFields[i] : "eventcore.fired";
    diff += es2::format(" %s=%.17g(want %.17g)", field.c_str(), got[i], want[i]);
  }
  return diff;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ratio(double num, double den) { return den != 0 ? num / den : kNotApplicable; }
double pct(double num, double den) { return den != 0 ? 100 * num / den : kNotApplicable; }

/// Peak resident set of this program image. VmHWM, unlike getrusage's
/// ru_maxrss, is not inherited from the launcher across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

struct CellSample {
  CellRun full;
  CellRun twin;
  double delta(const std::string& key) const {
    return full.counts.at(key) - twin.counts.at(key);
  }
};

struct RoundTimes {
  bool traced = false;
  double kernel_ns = 0;  // reference kernel, mean over the round's cells
  double measured_wall_s = 0;
  double setup_s = 0;
  double allocs = 0;
};

const CellSample* find_cell(const Workload& wl, const std::vector<CellSample>& r0,
                            const std::string& name) {
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    if (wl.cells[i].name == name) return &r0[i];
  }
  return nullptr;
}

/// Paper error of one reference, as a fraction.
double ref_error(const PaperRef& ref, const Workload& wl,
                 const std::vector<CellSample>& r0) {
  if (ref.quantity == RefQuantity::kGoodputRatio) {
    const std::string sc = ref.cell;
    const CellSample* base = find_cell(wl, r0, sc + "/baseline");
    const CellSample* es2 = find_cell(wl, r0, sc + "/pi_h_r");
    const double ours = es2->full.goodput / base->full.goodput;
    return std::fabs(ours - ref.value) / ref.value;
  }
  const es2::ExitBreakdown& e = find_cell(wl, r0, ref.cell)->full.exits;
  double ours = 0;
  switch (ref.quantity) {
    case RefQuantity::kExitsDelivery: ours = e.interrupt_delivery; break;
    case RefQuantity::kExitsCompletion: ours = e.interrupt_completion; break;
    case RefQuantity::kExitsIo: ours = e.io_instruction; break;
    case RefQuantity::kExitsOther: ours = e.others; break;
    case RefQuantity::kTigPct: ours = e.tig_percent; break;
    case RefQuantity::kGoodputRatio: break;
  }
  if (ref.lower_bound) return std::max(0.0, ref.value - ours) / ref.value;
  // A zero reference is normalised by the cell's total exit rate.
  if (ref.value == 0) return e.total > 0 ? std::fabs(ours) / e.total : 0;
  return std::fabs(ours - ref.value) / ref.value;
}

struct PaperErr {
  double all = 0;
  double calibration = kNotApplicable;
  double heldout = kNotApplicable;
};

/// Mean percent error over the workload's references. Workloads without
/// any paper reference report 100 (nothing verified).
PaperErr paper_error(const Workload& wl, const std::vector<CellSample>& r0) {
  std::vector<PaperRef> refs;
  if (wl.name == "micro_stream") refs.assign(std::begin(kMicroRefs), std::end(kMicroRefs));
  if (wl.name == "macro_stream") refs.assign(std::begin(kMacroRefs), std::end(kMacroRefs));
  PaperErr out;
  if (refs.empty()) {
    out.all = 100;
    return out;
  }
  double sum = 0, sum_cal = 0, sum_held = 0;
  int n_cal = 0, n_held = 0;
  for (const PaperRef& ref : refs) {
    const double err = 100 * ref_error(ref, wl, r0);
    sum += err;
    if (ref.calibration) {
      sum_cal += err;
      ++n_cal;
    } else {
      sum_held += err;
      ++n_held;
    }
  }
  out.all = sum / static_cast<double>(refs.size());
  if (n_cal > 0) out.calibration = sum_cal / n_cal;
  if (n_held > 0) out.heldout = sum_held / n_held;
  return out;
}

// ---------------------------------------------------------------------------
// One benchmark run
// ---------------------------------------------------------------------------

struct RunState {
  Workload wl;
  std::vector<CellSample> first;  // round 0; later rounds keep only times
  std::vector<RoundTimes> times;
  std::vector<std::vector<double>> first_digest;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool reference_checked = false;
};

/// Runs and checks one round; failures are printed and counted.
void run_round(RunState& st, const Reference* ref, std::uint64_t seed,
               SpanRecorder* spans) {
  const std::size_t r = st.times.size();
  ScopedSpan round_span(spans, es2::format("round%zu", r));
  std::vector<CellSample> samples(st.wl.cells.size());
  RoundTimes t;
  t.traced = spans != nullptr && spans->enabled();
  const auto* seed_ref = ref != nullptr && ref->count(seed) ? &ref->at(seed) : nullptr;
  if (r == 0) st.reference_checked = seed_ref != nullptr;
  for (std::size_t i = 0; i < st.wl.cells.size(); ++i) {
    const CellSpec& cell = st.wl.cells[i];
    CellSample& s = samples[i];
    const double samples_per_round = 2.0 * static_cast<double>(st.wl.cells.size());
    t.kernel_ns += reference_kernel_ns() / samples_per_round;
    s.full = run_cell(cell, false, spans, static_cast<int>(i));
    t.kernel_ns += reference_kernel_ns() / samples_per_round;
    s.twin = run_cell(cell, true, spans, static_cast<int>(i));
    t.measured_wall_s += s.full.wall_s - s.twin.wall_s;
    t.setup_s += s.twin.wall_s;
    t.allocs += static_cast<double>(s.full.allocs - s.twin.allocs);

    std::string why;
    if (!s.full.verdict_ok) why += " verdict: " + s.full.verdict;
    if (!s.twin.verdict_ok) why += " twin verdict: " + s.twin.verdict;
    const std::string mechanism = mechanism_check(cell, s.full);
    if (!mechanism.empty()) why += " " + mechanism;
    std::vector<double> digest = digest_of(s.full.counts, true);
    if (r == 0) {
      st.first_digest.push_back(std::move(digest));
      const std::string key = st.wl.name + "/" + cell.name;
      if (seed_ref != nullptr) {
        const auto it = seed_ref->find(key);
        if (it == seed_ref->end()) {
          why += " no reference entry";
        } else {
          const std::string d = digest_diff(digest_of(s.full.counts, false), it->second);
          if (!d.empty()) why += " reference mismatch:" + d;
        }
      }
    } else if (digest != st.first_digest[i]) {
      why += " differs from round 0 (nondeterministic):" + digest_diff(digest, st.first_digest[i]);
    }
    ++st.attempted;
    if (!why.empty()) {
      ++st.failed;
      std::printf("FAIL %s round %zu:%s\n", cell.name.c_str(), r, why.c_str());
    }
  }
  if (r == 0) st.first = std::move(samples);
  st.times.push_back(t);
}

using Values = std::map<std::string, double>;

double sum_delta(const std::vector<CellSample>& r0, const std::string& key) {
  double s = 0;
  for (const CellSample& c : r0) s += c.delta(key);
  return s;
}

/// End-to-end metrics plus the per-layer counts both modes share.
void compute_metrics(const RunState& st, Values* e2e, Values* layer) {
  const Workload& wl = st.wl;
  const std::vector<CellSample>& r0 = st.first;
  double sim_s = 0;
  for (const CellSpec& c : wl.cells) sim_s += c.measured_sim_s;
  const double pkts = sum_delta(r0, "link.packets");
  // End-to-end host times are scaled to the nominal machine, round by
  // round; the raw speed and the kernel reading go to the per-layer ledger.
  std::vector<double> speed, raw_speed, kernel, ns_pkt, setup, allocs;
  for (const RoundTimes& t : st.times) {
    const double scale = kNominalKernelNs / t.kernel_ns;
    speed.push_back(sim_s / (t.measured_wall_s * scale));
    raw_speed.push_back(sim_s / t.measured_wall_s);
    kernel.push_back(t.kernel_ns);
    ns_pkt.push_back(t.measured_wall_s * scale * 1e9 / pkts);
    setup.push_back(t.setup_s * scale);
    allocs.push_back(t.allocs / pkts);
  }
  Values& e = *e2e;
  e["sim_speed"] = median(speed);
  e["wall_ns_per_pkt"] = median(ns_pkt);
  e["events_per_pkt"] = sum_delta(r0, "eventcore.fired") / pkts;
  e["allocs_per_pkt"] = median(allocs);
  e["peak_rss_mb"] = peak_rss_mb();
  e["setup_s"] = median(setup);

  // ES2 (PI+H+R) against Baseline on every scenario that runs both.
  double exits_es2 = 0, exits_base = 0, log_ratio = 0;
  int pairs = 0;
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    if (wl.cells[i].stack != Stack::kPiHR) continue;
    const CellSample* base = find_cell(wl, r0, wl.cells[i].scenario + "/baseline");
    const auto exits = [](const CellSample& c) {
      return c.delta("exits.delivery") + c.delta("exits.completion") +
             c.delta("exits.io") + c.delta("exits.other");
    };
    exits_es2 += exits(r0[i]);
    exits_base += exits(*base);
    log_ratio += std::log(r0[i].full.goodput / base->full.goodput);
    ++pairs;
  }
  e["es2_exit_cut_pct"] = 100 * (1 - exits_es2 / exits_base);
  e["es2_goodput_pct"] = 100 * std::exp(log_ratio / pairs);
  const PaperErr perr = paper_error(wl, r0);
  e["paper_err_pct"] = perr.all;
  double est_on = 0, est_off = 0;
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    if (!wl.cells[i].storm) continue;
    (wl.cells[i].storm_opts.mitigation ? est_on : est_off) +=
        static_cast<double>(r0[i].full.storm.established);
  }
  // Stream workloads have no mitigation arm: on / off is taken as 1.
  e["storm_keep_x"] = est_off > 0 ? est_on / est_off : 1.0;
  e["cell_pass_pct"] =
      100.0 * static_cast<double>(st.attempted - st.failed) / static_cast<double>(st.attempted);

  Values& l = *layer;
  l["host.kernel_ns"] = median(kernel);
  l["host.sim_speed_raw"] = median(raw_speed);
  const auto per_pkt = [&](const char* key) { return sum_delta(r0, key) / pkts; };
  l["sim.events_per_pkt"] = e["events_per_pkt"];
  l["sim.cancel_pct"] =
      pct(sum_delta(r0, "eventcore.cancelled"), sum_delta(r0, "eventcore.scheduled"));
  l["sim.boxed_per_pkt"] = per_pkt("eventcore.boxed");
  l["sim.far_per_pkt"] = per_pkt("eventcore.far");
  double peak_live = 0;
  for (const CellSample& c : r0) peak_live = std::max(peak_live, c.full.counts.at("eventcore.peak_live"));
  l["sim.peak_live"] = peak_live;
  l["cpu.ctx_switches_per_pkt"] = per_pkt("cfs.ctx_switches");
  l["cpu.preemptions_per_pkt"] = per_pkt("cfs.preemptions");
  l["vm.exits_per_pkt.delivery"] = per_pkt("exits.delivery");
  l["vm.exits_per_pkt.completion"] = per_pkt("exits.completion");
  l["vm.exits_per_pkt.io"] = per_pkt("exits.io");
  l["vm.exits_per_pkt.other"] = per_pkt("exits.other");
  double tig = 0;
  int tig_n = 0;
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    if (wl.cells[i].storm) continue;
    tig += r0[i].full.exits.tig_percent;
    ++tig_n;
  }
  l["vm.tig_pct"] = tig_n > 0 ? tig / tig_n : kNotApplicable;
  l["vm.irqs_per_pkt"] = per_pkt("vm.irqs");
  l["vm.paper_err_calibration_pct"] = perr.calibration;
  l["vm.paper_err_heldout_pct"] = perr.heldout;
  l["apic.lapic_posts_per_pkt"] = per_pkt("apic.lapic_posts");
  l["apic.pi_posts_per_pkt"] = per_pkt("apic.pi_posts");
  l["apic.pi_notifications_per_pkt"] = per_pkt("apic.pi_notifications");
  l["apic.eois_per_pkt"] = per_pkt("apic.eois");
  l["virtio.vq_added_per_pkt"] = per_pkt("virtio.vq_added");
  l["virtio.irq_enables_per_pkt"] = per_pkt("virtio.irq_enables");
  l["virtio.notify_enables_per_pkt"] = per_pkt("virtio.notify_enables");
  l["vhost.turns_per_pkt"] = per_pkt("vhost.turns");
  l["vhost.wakeups_per_pkt"] = per_pkt("vhost.wakeups");
  l["vhost.quota_hits_per_pkt"] = per_pkt("vhost.quota_hits");
  l["vhost.mode_reverts"] = sum_delta(r0, "vhost.mode_reverts");
  l["vhost.irqs_per_pkt"] = per_pkt("vhost.irqs");
  l["vhost.poll_useful_pct"] =
      pct(sum_delta(r0, "vhost.poll_harvests"), sum_delta(r0, "vhost.poll_spins"));
  l["guest.kicks_per_pkt"] = per_pkt("guest.kicks");
  l["guest.napi_polled_per_pkt"] = per_pkt("guest.napi_polled");
  l["guest.tx_queue_stops"] = sum_delta(r0, "guest.tx_queue_stops");
  l["guest.livelock_detections"] = sum_delta(r0, "guest.livelock_detections");
  l["guest.ksoftirqd_defers"] = sum_delta(r0, "guest.ksoftirqd_defers");
  l["net.pkts"] = pkts;
  for (const char* cause : {"wire", "backpressure", "sock_backlog", "syn_backlog",
                            "accept_queue", "accept_shed", "worker_queue"}) {
    l[std::string("net.drops_pct.") + cause] =
        100 * sum_delta(r0, std::string("drops.") + cause) / pkts;
  }
  double retries = 0, attempted = 0, established = 0, abandoned = 0, p99 = kNotApplicable;
  double episodes = 0, recovered = 0, mttr = kNotApplicable;
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    if (!wl.cells[i].storm) continue;
    const es2::StormResult& s = r0[i].full.storm;
    retries += static_cast<double>(s.retries);
    attempted += static_cast<double>(s.attempted);
    established += static_cast<double>(s.established);
    abandoned += static_cast<double>(s.abandoned);
    p99 = std::max(p99, s.connect_p99_ms);
    if (wl.cells[i].storm_opts.mitigation) {
      episodes += static_cast<double>(s.episodes);
      recovered += static_cast<double>(s.episodes_recovered);
      mttr = std::max(mttr, static_cast<double>(s.mttr_p99) / 1e6);
    }
  }
  // Useful / attempted: connections on storm cells, packets on streams.
  l["apps.established_pct"] = attempted > 0
                                  ? 100 * established / attempted
                                  : pct(sum_delta(r0, "delivered"), sum_delta(r0, "sent"));
  l["apps.retries_per_conn"] = attempted > 0 ? retries / attempted : kNotApplicable;
  l["apps.abandoned"] = abandoned;
  l["apps.connect_p99_ms"] = p99;
  l["fault.episodes"] = episodes;
  l["fault.recovered_pct"] = episodes > 0 ? 100 * recovered / episodes : kNotApplicable;
  l["fault.mttr_p99_ms"] = episodes > 0 ? mttr : kNotApplicable;
  l["harness.reference_checked"] = st.reference_checked ? 1 : 0;
  double frames = 0;
  for (const CellSample& c : r0) frames += c.full.counts.at("metrics.sampler_frames");
  l["metrics.sampler_frames"] = frames;
}

/// The cell the Testbed-level replica rebuilds: the workload's first
/// PI+H+R cell, the one where redirection can act.
const CellSpec& replica_cell(const Workload& wl) {
  for (const CellSpec& c : wl.cells) {
    if (c.stack == Stack::kPiHR) return c;
  }
  return wl.cells.front();
}

/// Per-layer host numbers: isolated probes, the replica, est/unattributed
/// ns per packet and the tracing overhead.
bool layer_host_metrics(const RunState& st, SpanRecorder* spans, Values* l) {
  Values& m = *l;
  std::vector<double> traced, untraced, traced_ns;
  double sim_s = 0;
  for (const CellSpec& c : st.wl.cells) sim_s += c.measured_sim_s;
  const double pkts = m["net.pkts"];
  for (const RoundTimes& t : st.times) {
    (t.traced ? traced : untraced).push_back(sim_s / t.measured_wall_s);
    if (t.traced) traced_ns.push_back(t.measured_wall_s * 1e9 / pkts);
  }
  m["trace.sim_speed_traced"] = median(traced);
  m["trace.sim_speed_untraced"] = median(untraced);
  m["trace.overhead_pct"] = 100 * (median(untraced) / median(traced) - 1);
  m["host.wall_ns_per_pkt"] = median(traced_ns);

  const ProbeCost sim = probe_sim(spans);
  const ProbeCost cfs = probe_cfs(spans);
  const ProbeCost apic = probe_apic(spans);
  const ProbeCost vq = probe_virtqueue(spans);
  const ProbeCost red = probe_redirector(spans);
  const ProbeCost hist = probe_histogram(spans);
  m["sim.ns_per_event"] = sim.ns_per_op;
  m["sim.allocs_per_event"] = sim.allocs_per_op;
  m["cpu.ns_per_resched"] = cfs.ns_per_op;
  m["apic.ns_per_post"] = apic.ns_per_op;
  m["virtio.ns_per_ring_op"] = vq.ns_per_op;
  m["virtio.allocs_per_ring_op"] = vq.allocs_per_op;
  m["es2.ns_per_select"] = red.ns_per_op;
  m["stats.ns_per_record"] = hist.ns_per_op;

  const CellSpec& cell = replica_cell(st.wl);
  std::size_t index = 0;
  while (st.wl.cells[index].name != cell.name) ++index;
  const ReplicaRun rep = run_replica(cell, spans, static_cast<int>(index));
  const Counts& runner = st.first[index].full.counts;
  const bool match = digest_of(rep.counts, true) == digest_of(runner, true);
  if (!match) {
    std::printf("FAIL replica of %s differs from its runner cell:%s\n", cell.name.c_str(),
                digest_diff(digest_of(rep.counts, true), digest_of(runner, true)).c_str());
  }
  m["harness.replica_match"] = match ? 1 : 0;
  m["harness.build_ms"] = rep.build_s * 1e3;
  m["harness.warmup_s"] = rep.warmup_s;
  m["harness.measure_s"] = rep.measure_s;
  m["harness.harvest_ms"] = rep.harvest_s * 1e3;
  m["harness.teardown_ms"] = rep.teardown_s * 1e3;
  const double irqs = rep.counts.at("vm.irqs");
  const double rep_pkts = rep.counts.at("link.packets");
  m["es2.redirect_sticky_per_irq"] = ratio(rep.via_sticky, irqs);
  m["es2.redirect_online_per_irq"] = ratio(rep.via_online, irqs);
  m["es2.redirect_offline_per_irq"] = ratio(rep.via_offline, irqs);
  m["es2.tracker_transitions_per_pkt"] = rep.tracker_transitions / rep_pkts;

  // Calls per packet x host ns per call, for layers with an isolated probe.
  m["sim.est_ns_per_pkt"] = m["sim.events_per_pkt"] * sim.ns_per_op;
  m["cpu.est_ns_per_pkt"] = m["cpu.ctx_switches_per_pkt"] * cfs.ns_per_op;
  m["apic.est_ns_per_pkt"] =
      (m["apic.lapic_posts_per_pkt"] + m["apic.pi_posts_per_pkt"]) * apic.ns_per_op;
  m["virtio.est_ns_per_pkt"] = m["virtio.vq_added_per_pkt"] * vq.ns_per_op;
  m["es2.est_ns_per_pkt"] =
      (rep.via_sticky + rep.via_online + rep.via_offline) / rep_pkts * red.ns_per_op;
  m["host.est_ns_per_pkt"] = m["sim.est_ns_per_pkt"] + m["cpu.est_ns_per_pkt"] +
                             m["apic.est_ns_per_pkt"] + m["virtio.est_ns_per_pkt"] +
                             m["es2.est_ns_per_pkt"];
  m["host.unattributed_ns_per_pkt"] = m["host.wall_ns_per_pkt"] - m["host.est_ns_per_pkt"];
  return match;
}

/// Prints the human-readable table and the final JSON line.
template <std::size_t N>
bool emit(const MetricDef (&defs)[N], const Values& values, bool correct,
          std::int64_t attempted, std::int64_t failed) {
  es2::Json metrics = es2::Json::object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::printf("FAIL metric %s has no finite value\n", d.name);
      return false;
    }
    std::printf("  %-34s %18.6f %s\n", d.name, it->second, d.unit);
    es2::Json m = es2::Json::object();
    m.set("value", es2::Json::number(it->second));
    m.set("unit", es2::Json::string(d.unit));
    metrics.set(d.name, std::move(m));
  }
  es2::Json out = es2::Json::object();
  out.set("correct", es2::Json::boolean(correct));
  out.set("attempted", es2::Json::number(static_cast<double>(attempted)));
  out.set("failed", es2::Json::number(static_cast<double>(failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return true;
}

/// Workload-level claims the model makes at every seed (bench_storm's
/// gates): a mitigated collapse keeps at least 2x the establishments.
std::string workload_check(const Values& e2e, const Workload& wl) {
  if (wl.name == "storm_collapse" && e2e.at("storm_keep_x") < 2.0) {
    return es2::format("storm_keep_x %.3f below the 2x gate", e2e.at("storm_keep_x"));
  }
  return "";
}

int run_benchmark(const Args& a) {
  RunState st;
  make_workload(a.workload, a.seed, &st.wl);
  Reference ref;
  if (!a.reference.empty()) {
    const std::string err = load_reference(a.reference, &ref);
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
  }
  SpanRecorder spans;
  std::printf("workload %s seed %llu seconds %d trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  const double t0 = now_s();
  // Traced runs alternate untraced and traced rounds so both speeds come
  // from the same run; every run gets at least two rounds, so the
  // same-seed digest check always has a second run to compare.
  // A round starts only if it should end inside the budget.
  double last_round = 0;
  while (st.times.size() < 2 || now_s() - t0 + last_round < a.seconds) {
    const double r0 = now_s();
    spans.set_enabled(a.trace == 1 && st.times.size() % 2 == 1);
    run_round(st, a.reference.empty() ? nullptr : &ref, a.seed, &spans);
    last_round = now_s() - r0;
    const RoundTimes& t = st.times.back();
    std::printf("round %zu: %.3f s measured, %.3f s set-up, kernel %.1f ns%s\n",
                st.times.size() - 1, t.measured_wall_s, t.setup_s, t.kernel_ns,
                t.traced ? ", traced" : "");
  }
  std::printf("rounds %zu in %.2f s\n", st.times.size(), now_s() - t0);

  Values e2e, layer;
  compute_metrics(st, &e2e, &layer);
  bool correct = st.failed == 0;
  const std::string wl_err = workload_check(e2e, st.wl);
  if (!wl_err.empty()) {
    std::printf("FAIL %s\n", wl_err.c_str());
    correct = false;
  }
  if (a.trace == 0) {
    std::printf("end-to-end metrics (%s):\n", a.workload.c_str());
    return emit(kEndToEnd, e2e, correct, st.attempted, st.failed) ? 0 : 1;
  }
  spans.set_enabled(true);
  correct = layer_host_metrics(st, &spans, &layer) && correct;
  layer["trace.spans"] = static_cast<double>(spans.spans().size());
  const std::string prefix =
      es2::format("%s/%s-seed%llu", a.out.c_str(), a.workload.c_str(),
                  static_cast<unsigned long long>(a.seed));
  if (!spans.write(prefix)) {
    std::fprintf(stderr, "error: cannot write spans to %s.*\n", prefix.c_str());
    return 1;
  }
  std::printf("spans: %s.{perfetto.json,collapsed,spans.json}\n", prefix.c_str());
  std::printf("per-layer metrics (%s):\n", a.workload.c_str());
  return emit(kPerLayer, layer, correct, st.attempted, st.failed) ? 0 : 1;
}

int record_reference(const Args& a) {
  // One cell per line keeps the file reviewable as a diff.
  std::string text = "{\n \"schema\": \"perfbench-ref-v1\",\n \"fields\": [";
  for (std::size_t i = 0; i < kOutputFields.size(); ++i) {
    text += (i ? ", " : "") + es2::Json::escape(kOutputFields[i]);
  }
  text += "],\n \"seeds\": {";
  for (std::uint64_t seed = a.seed_lo; seed <= a.seed_hi; ++seed) {
    text += es2::format("%s\n  \"%llu\": {", seed == a.seed_lo ? "" : ",",
                        static_cast<unsigned long long>(seed));
    bool first = true;
    for (const std::string& name : workload_names()) {
      Workload wl;
      make_workload(name, seed, &wl);
      for (const CellSpec& cell : wl.cells) {
        const CellRun run = run_cell(cell, false, nullptr, -1);
        if (!run.verdict_ok) {
          std::fprintf(stderr, "error: %s seed %llu: %s\n", cell.name.c_str(),
                       static_cast<unsigned long long>(seed), run.verdict.c_str());
          return 1;
        }
        es2::Json v = es2::Json::array();
        for (double d : digest_of(run.counts, false)) v.push_back(es2::Json::number(d));
        text += (first ? "\n   " : ",\n   ") + es2::Json::escape(name + "/" + cell.name) +
                ": " + v.dump();
        first = false;
      }
    }
    text += "\n  }";
    std::fprintf(stderr, "recorded seed %llu\n", static_cast<unsigned long long>(seed));
  }
  text += "\n }\n}\n";
  std::ofstream f(a.record, std::ios::binary);
  f << text;
  return f.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

int self_test(const Args& a) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  Workload wl;
  make_workload("micro_stream", 1, &wl);
  const CellSpec& cell = wl.cells.front();  // tcp_send/baseline

  // Two same-seed runs give identical digests, events included.
  const CellRun r1 = run_cell(cell, false, nullptr, -1);
  const CellRun r2 = run_cell(cell, false, nullptr, -1);
  check(digest_of(r1.counts, true) == digest_of(r2.counts, true),
        "same-seed runs give identical digests");

  // The digest trips on any perturbed output or event count.
  const std::vector<double> base = digest_of(r1.counts, true);
  for (const std::string& field : {std::string("exits.io"), std::string("link.packets"),
                                   std::string("eventcore.fired")}) {
    Counts perturbed = r1.counts;
    perturbed[field] += 1;
    const std::vector<double> p = digest_of(perturbed, true);
    const std::string diff = digest_diff(p, base);
    check(diff.find(field) != std::string::npos,
          "digest names a perturbed " + field);
  }

  // The recorded reference agrees, and disagrees once perturbed.
  if (!a.reference.empty()) {
    Reference ref;
    const std::string err = load_reference(a.reference, &ref);
    check(err.empty(), "reference loads " + err);
    if (err.empty() && ref.count(1) && ref[1].count("micro_stream/" + cell.name)) {
      const std::vector<double>& want = ref[1]["micro_stream/" + cell.name];
      check(digest_diff(digest_of(r1.counts, false), want).empty(),
            "seed 1 matches the recorded reference");
      Counts perturbed = r1.counts;
      perturbed["drops.sock_backlog"] += 1;
      check(!digest_diff(digest_of(perturbed, false), want).empty(),
            "a perturbed drop count fails the reference check");
    } else {
      check(false, "reference holds seed 1 " + cell.name);
    }
  }

  // The supervised cell is the same simulated world as run_stream.
  const es2::StreamResult plain = es2::run_stream(cell.stream.stream);
  Counts plain_counts = counts_of(*plain.metrics, plain.drops);
  plain_counts["established"] = 0;
  check(digest_diff(digest_of(plain_counts, false), digest_of(r1.counts, false)).empty(),
        "supervised cell matches run_stream outputs");
  check(plain.exits.total == r1.exits.total && plain.throughput_mbps == r1.goodput,
        "supervised cell matches run_stream exit rate and throughput");

  // Cells whose options match bench_fig5's reproduce its golden CSV rows.
  std::string golden;
  check(read_text("bench/out/fig5.csv", &golden), "bench/out/fig5.csv is readable");
  const std::map<std::string, std::string> labels = {
      {"tcp_send", "send TCP"}, {"udp_recv", "recv UDP"}, {"baseline", "Baseline"},
      {"pi", "PI"}, {"pi_h", "PI+H"}};
  for (const CellSpec& c : wl.cells) {
    if (c.stack == Stack::kPiHR) continue;  // not a Fig. 5 stack
    const es2::ExitBreakdown e = run_cell(c, false, nullptr, -1).exits;
    const std::string row = es2::format(
        "%s,%s,%.0f,%.0f,%.0f,%.0f,%.0f,%.2f\n", labels.at(c.scenario).c_str(),
        labels.at(stack_name(c.stack)).c_str(), e.interrupt_delivery,
        e.interrupt_completion, e.io_instruction, e.others, e.total, e.tig_percent);
    check(golden.find(row) != std::string::npos, c.name + " reproduces fig5.csv: " + row.substr(0, row.size() - 1));
  }

  // ... and the macro cells bench_fig6's rows.
  check(read_text("bench/out/fig6.csv", &golden), "bench/out/fig6.csv is readable");
  Workload macro;
  make_workload("macro_stream", 1, &macro);
  for (const CellSpec& c : macro.cells) {
    const CellRun run = run_cell(c, false, nullptr, -1);
    const std::string row = es2::format(
        "%s,1024,%s,%.1f,%.0f,%.0f,%.2f\n", c.stream.stream.vm_sends ? "send" : "recv",
        c.stream.stream.config.name().c_str(), run.goodput, run.packets_per_sec,
        run.exits.io_instruction, run.exits.tig_percent);
    check(golden.find(row) != std::string::npos, c.name + " reproduces fig6.csv: " + row.substr(0, row.size() - 1));
  }

  // The Testbed replica rebuilds the runner's world exactly.
  const ReplicaRun rep = run_replica(cell, nullptr, -1);
  check(digest_of(rep.counts, true) == digest_of(r1.counts, true),
        "replica matches its runner cell");
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Whether the heap lands on a transparent huge page depends on where
  // ASLR put it, which moved peak_rss_mb by 1-2 MiB between otherwise
  // identical runs; 4 KiB pages make it repeat.
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  Args args;
  const std::string err = parse_args(argc, argv, &args);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n%s", err.c_str(), kUsage);
    return 2;
  }
  if (args.self_test) return self_test(args);
  if (!args.record.empty()) return record_reference(args);
  return run_benchmark(args);
}
