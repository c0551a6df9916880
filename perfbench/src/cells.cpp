#include "cells.h"

#include <chrono>

#include "base/alloc_hook.h"
#include "es2/es2.h"
#include "spans.h"

namespace perfbench {

using namespace es2;

const char* stack_name(Stack stack) {
  switch (stack) {
    case Stack::kBaseline: return "baseline";
    case Stack::kPi: return "pi";
    case Stack::kPiH: return "pi_h";
    case Stack::kPiHR: return "pi_h_r";
  }
  return "?";
}

namespace {

Es2Config config_of(Stack stack, int quota) {
  switch (stack) {
    case Stack::kBaseline: return Es2Config::baseline();
    case Stack::kPi: return Es2Config::pi();
    case Stack::kPiH: return Es2Config::pi_h(quota);
    case Stack::kPiHR: return Es2Config::pi_h_r(quota);
  }
  return Es2Config::baseline();
}

struct StreamScenario {
  const char* name;
  Proto proto;
  bool vm_sends;
};

/// Stream cells run under the chaos runner with an empty fault plan: the
/// same simulated world as run_stream (verified by the self-test against
/// it), plus a watchdog verdict and the invariant auditor. Fast
/// retransmit and the guest TX watchdog stay at run_stream's defaults.
CellSpec stream_cell(const StreamScenario& sc, Stack stack, bool macro,
                     std::uint64_t seed) {
  CellSpec c;
  c.scenario = sc.name;
  c.stack = stack;
  c.name = std::string(sc.name) + "/" + stack_name(stack);
  StreamOptions& o = c.stream.stream;
  // Fig. 5 sizes H's quota per protocol; Fig. 6 runs the config defaults.
  const int quota = macro || sc.proto == Proto::kTcp
                        ? HybridIoHandling::kQuotaTcp
                        : HybridIoHandling::kQuotaUdp;
  o.config = config_of(stack, quota);
  o.proto = sc.proto;
  o.msg_size = 1024;
  o.vm_sends = sc.vm_sends;
  o.seed = seed;
  if (macro) {  // bench_fig6 cell options
    o.macro = true;
    o.threads = 4;
    o.warmup = msec(400);
    o.measure = sec(1);
  } else {  // bench_fig5 cell options
    o.warmup = msec(250);
    o.measure = msec(800);
  }
  c.stream.dupack_threshold = 0;
  c.stream.tx_watchdog = false;
  c.stream.audit = true;
  c.measured_sim_s = to_seconds(o.measure);
  return c;
}

/// bench_storm's full-length collapse ramp.
CellSpec storm_cell(Stack stack, bool mitigation, std::uint64_t seed) {
  CellSpec c;
  c.storm = true;
  c.scenario = mitigation ? "collapse_mitigated" : "collapse";
  c.stack = stack;
  c.name = c.scenario + "/" + stack_name(stack);
  StormOptions& o = c.storm_opts;
  o.config = config_of(stack, HybridIoHandling::kQuotaTcp);
  o.mitigation = mitigation;
  o.seed = seed;
  o.shape.base_rate = 4000;
  o.shape.peak_rate = 400000;
  o.shape.ramp_up = msec(300);
  o.shape.hold = msec(800);
  o.shape.ramp_down = msec(300);
  o.cooldown = msec(500);
  o.syn_payload = 256;
  o.expect_livelock = !mitigation;
  o.budget.max_sim_time = sec(10);
  c.measured_sim_s = to_seconds(o.shape.ramp_up + o.shape.hold +
                                o.shape.ramp_down + o.cooldown);
  return c;
}

double sum_named(const MetricsData& m, const char* name) {
  double total = 0;
  for (const MetricSample& s : m.samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

double sum_labelled(const MetricsData& m, const char* name, const char* key,
                    const char* value) {
  double total = 0;
  for (const MetricSample& s : m.samples) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.labels) {
      if (k == key && v == value) total += s.value;
    }
  }
  return total;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"micro_stream", "macro_stream",
                                                 "storm_collapse"};
  return names;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload* out) {
  out->name = name;
  out->cells.clear();
  const Stack all4[] = {Stack::kBaseline, Stack::kPi, Stack::kPiH, Stack::kPiHR};
  if (name == "micro_stream") {
    const StreamScenario scenarios[] = {{"tcp_send", Proto::kTcp, true},
                                        {"udp_recv", Proto::kUdp, false}};
    for (const auto& sc : scenarios) {
      for (Stack s : all4) out->cells.push_back(stream_cell(sc, s, false, seed));
    }
  } else if (name == "macro_stream") {
    const StreamScenario scenarios[] = {{"tcp_send", Proto::kTcp, true},
                                        {"tcp_recv", Proto::kTcp, false}};
    for (const auto& sc : scenarios) {
      for (Stack s : {Stack::kBaseline, Stack::kPiHR}) {
        out->cells.push_back(stream_cell(sc, s, true, seed));
      }
    }
  } else if (name == "storm_collapse") {
    for (bool mitigation : {false, true}) {
      for (Stack s : {Stack::kBaseline, Stack::kPiHR}) {
        out->cells.push_back(storm_cell(s, mitigation, seed));
      }
    }
  } else {
    return false;
  }
  return true;
}

Counts counts_of(const MetricsData& m, const DropCounts& drops) {
  Counts c;
  const double exits_total = sum_named(m, "vm.exits");
  c["exits.delivery"] = sum_labelled(m, "vm.exits", "cause", "external_interrupt");
  c["exits.completion"] = sum_labelled(m, "vm.exits", "cause", "apic_access");
  c["exits.io"] = sum_labelled(m, "vm.exits", "cause", "io_instruction");
  c["exits.other"] = exits_total - c["exits.delivery"] - c["exits.completion"] -
                     c["exits.io"];
  c["link.packets"] = sum_named(m, "net.link.packets");
  c["drops.wire"] = static_cast<double>(drops.wire);
  c["drops.backpressure"] = static_cast<double>(drops.backpressure);
  c["drops.sock_backlog"] = static_cast<double>(drops.sock_backlog);
  c["drops.syn_backlog"] = static_cast<double>(drops.syn_backlog);
  c["drops.accept_queue"] = static_cast<double>(drops.accept_queue);
  c["drops.accept_shed"] = static_cast<double>(drops.accept_shed);
  c["drops.worker_queue"] = static_cast<double>(drops.worker_queue);
  c["delivered"] = sum_named(m, "peer.stream.packets_received") +
                   sum_named(m, "app.netperf.packets_received");
  c["sent"] = sum_named(m, "app.netperf.packets_sent") +
              sum_named(m, "peer.stream.packets_sent");
  c["eventcore.fired"] = sum_named(m, "eventcore.fired");
  c["eventcore.scheduled"] = sum_named(m, "eventcore.scheduled");
  c["eventcore.cancelled"] = sum_named(m, "eventcore.cancelled");
  c["eventcore.boxed"] = sum_named(m, "eventcore.boxed_callbacks");
  c["eventcore.far"] = sum_named(m, "eventcore.far_hits");
  c["eventcore.peak_live"] = sum_named(m, "eventcore.peak_live");
  c["cfs.ctx_switches"] = sum_named(m, "cfs.context_switches");
  c["cfs.preemptions"] = sum_named(m, "cfs.preemptions");
  c["vm.irqs"] = sum_named(m, "vm.irqs_taken");
  c["apic.lapic_posts"] = sum_named(m, "apic.lapic.posts");
  c["apic.pi_posts"] = sum_named(m, "apic.pi.posts");
  c["apic.pi_notifications"] = sum_named(m, "apic.pi.notifications");
  c["apic.eois"] = sum_named(m, "apic.lapic.eois") + sum_named(m, "apic.vapic.eois");
  c["virtio.vq_added"] = sum_named(m, "virtio.vq.added");
  c["virtio.irq_enables"] = sum_named(m, "virtio.vq.irq_enables");
  c["virtio.notify_enables"] = sum_named(m, "virtio.vq.notify_enables");
  c["vhost.turns"] = sum_named(m, "vhost.worker.turns");
  c["vhost.wakeups"] = sum_named(m, "vhost.worker.wakeups");
  c["vhost.quota_hits"] = sum_named(m, "vhost.tx.quota_hits");
  c["vhost.mode_reverts"] = sum_named(m, "vhost.tx.mode_reverts");
  c["vhost.irqs"] = sum_named(m, "vhost.tx.irqs") + sum_named(m, "vhost.rx.irqs");
  c["vhost.poll_spins"] = sum_named(m, "vhost.worker.poll_spins");
  c["vhost.poll_harvests"] = sum_named(m, "vhost.worker.poll_harvests");
  c["guest.kicks"] = sum_named(m, "guest.net.kicks");
  c["guest.napi_polled"] = sum_named(m, "guest.net.rx_polled");
  c["guest.tx_queue_stops"] = sum_named(m, "guest.net.tx_queue_stops");
  c["guest.livelock_detections"] =
      sum_named(m, "guest.net.overload.livelock_detections");
  c["guest.ksoftirqd_defers"] = sum_named(m, "guest.net.overload.ksoftirqd_defers");
  c["metrics.sampler_frames"] = static_cast<double>(m.sampler_total);
  return c;
}

const std::vector<std::string> kOutputFields = {
    "exits.delivery",     "exits.completion",   "exits.io",
    "exits.other",        "link.packets",       "drops.wire",
    "drops.backpressure", "drops.sock_backlog", "drops.syn_backlog",
    "drops.accept_queue", "drops.accept_shed",  "drops.worker_queue",
    "delivered",          "established"};

std::vector<double> digest_of(const Counts& counts, bool with_events) {
  std::vector<double> v;
  for (const std::string& f : kOutputFields) {
    const auto it = counts.find(f);
    v.push_back(it == counts.end() ? 0.0 : it->second);
  }
  if (with_events) v.push_back(counts.at("eventcore.fired"));
  return v;
}

CellRun run_cell(const CellSpec& cell, bool twin, SpanRecorder* spans,
                 int cell_id) {
  CellRun run;
  ScopedSpan span(spans, (twin ? "twin:" : "cell:") + cell.name, cell_id);
  if (cell.storm) {
    StormOptions o = cell.storm_opts;
    if (twin) {
      o.shape.ramp_up = o.shape.hold = o.shape.ramp_down = 0;
      o.cooldown = 0;
    }
    const std::int64_t a0 = es2::test::allocation_count();
    const double t0 = now_s();
    {
      ScopedSpan call(spans, "harness.run_storm");
      run.storm = run_storm(o, cell.name);
    }
    run.wall_s = now_s() - t0;
    run.allocs = es2::test::allocation_count() - a0;
    const StormResult& r = run.storm;
    run.counts = counts_of(*r.metrics, r.drops);
    run.counts["established"] = static_cast<double>(r.established);
    run.counts["delivered"] = static_cast<double>(r.served);
    run.counts["sent"] = static_cast<double>(r.attempted);
    run.goodput = r.goodput_mbps;
    run.verdict_ok = r.acceptable();
    if (!run.verdict_ok) run.verdict = r.report.to_line();
  } else {
    ChaosStreamOptions o = cell.stream;
    if (twin) o.stream.measure = 0;
    const std::int64_t a0 = es2::test::allocation_count();
    const double t0 = now_s();
    ChaosStreamResult r;
    {
      ScopedSpan call(spans, "harness.run_chaos_stream");
      r = run_chaos_stream(o, cell.name);
    }
    run.wall_s = now_s() - t0;
    run.allocs = es2::test::allocation_count() - a0;
    run.counts = counts_of(*r.stream.metrics, r.stream.drops);
    run.counts["established"] = 0;
    // Auditor sweeps are benchmark supervision, one event each; the model's
    // own event count excludes them.
    run.counts["eventcore.fired"] -= static_cast<double>(r.audit_sweeps);
    run.counts["eventcore.scheduled"] -= static_cast<double>(r.audit_sweeps);
    run.exits = r.stream.exits;
    run.goodput = r.stream.throughput_mbps;
    run.packets_per_sec = r.stream.packets_per_sec;
    run.verdict_ok = r.report.ok() && r.audit_violations == 0;
    if (!r.report.ok()) run.verdict = r.report.to_line();
    if (r.audit_violations != 0) {
      run.verdict += " audit violations: " + std::to_string(r.audit_violations);
    }
  }
  return run;
}

std::string mechanism_check(const CellSpec& cell, const CellRun& run) {
  // Posted interrupts remove both interrupt exit causes (Table I, PI row).
  // On the stacked macro testbed host timer interrupts still exit vCPUs
  // that share a core, so only completion exits must vanish there.
  if (cell.stack != Stack::kBaseline) {
    if (run.counts.at("exits.completion") != 0) {
      return "posted-interrupt stack took interrupt completion exits";
    }
    if (!cell.stream.stream.macro && run.counts.at("exits.delivery") != 0) {
      return "posted-interrupt stack took interrupt delivery exits";
    }
  }
  // A mitigated storm must close every livelock episode it opens.
  if (cell.storm && cell.storm_opts.mitigation &&
      run.storm.episodes_recovered != run.storm.episodes) {
    return "mitigated storm left a livelock episode open";
  }
  return {};
}

}  // namespace perfbench
