#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "apic/lapic.h"
#include "apic/vapic.h"
#include "apps/httpd.h"
#include "apps/netperf.h"
#include "apps/storm.h"
#include "base/alloc_hook.h"
#include "cpu/cfs.h"
#include "cpu/thread.h"
#include "es2/redirect.h"
#include "harness/testbed.h"
#include "sim/simulator.h"
#include "spans.h"
#include "stats/histogram.h"
#include "virtio/virtqueue.h"

namespace perfbench {

using namespace es2;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kRepetitions = 5;

/// Runs `body` (which returns the number of operations it performed)
/// kRepetitions times; returns the median cost per operation.
template <typename Body>
ProbeCost measure(SpanRecorder* spans, const char* name, Body&& body) {
  ScopedSpan span(spans, name);
  std::vector<double> ns;
  std::vector<double> allocs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::int64_t a0 = es2::test::allocation_count();
    const auto t0 = Clock::now();
    const double ops = static_cast<double>(body());
    const double wall = seconds_since(t0);
    const auto a = static_cast<double>(es2::test::allocation_count() - a0);
    ns.push_back(wall * 1e9 / ops);
    allocs.push_back(a / ops);
  }
  std::sort(ns.begin(), ns.end());
  std::sort(allocs.begin(), allocs.end());
  return {ns[kRepetitions / 2], allocs[kRepetitions / 2]};
}

/// Deterministic delay stream for the probes (no simulator RNG involved).
struct Lcg {
  std::uint64_t s = 0x2545F4914F6CDD1Dull;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

}  // namespace

double reference_kernel_ns() {
  constexpr int kHeap = 4096;
  constexpr int kIterations = 50000;
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeap);
  Lcg lcg;
  for (int i = 0; i < kHeap; ++i) heap.push_back(lcg.next());
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const auto t0 = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.back() += lcg.next() % 100000;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double ns = seconds_since(t0) * 1e9 / kIterations;
  // Keep the heap observable so the loop cannot be elided.
  return heap.front() == 0 ? ns + 1e-9 : ns;
}

ProbeCost probe_sim(SpanRecorder* spans) {
  return measure(spans, "probe.sim", [] {
    constexpr int kChains = 64;
    constexpr std::int64_t kEvents = 400000;
    Simulator sim(1);
    Lcg lcg;
    std::int64_t fired = 0;
    struct Chain {
      Simulator* sim;
      Lcg* lcg;
      std::int64_t* fired;
      void operator()() const {
        if (++*fired >= kEvents) return;
        // Mostly near-future delays with an occasional far timer, the mix
        // the model schedules.
        const std::uint64_t r = lcg->next();
        const SimDuration d = r % 16 == 0 ? static_cast<SimDuration>(r % 4000000)
                                          : static_cast<SimDuration>(r % 20000);
        sim->after(d, *this);
      }
    };
    for (int c = 0; c < kChains; ++c) {
      sim.after(static_cast<SimDuration>(lcg.next() % 1000),
                Chain{&sim, &lcg, &fired});
    }
    sim.run_to_completion();
    return fired;
  });
}

ProbeCost probe_cfs(SpanRecorder* spans) {
  return measure(spans, "probe.cfs", [] {
    Simulator sim(1);
    CfsScheduler sched(sim, 4);
    // 16 threads on 4 cores: half spin in short segments (timeslice
    // preemption), half wake periodically and block again (wakeup
    // preemption), like stacked vCPUs next to an I/O thread.
    std::vector<std::unique_ptr<SimThread>> threads;
    for (int i = 0; i < 16; ++i) {
      threads.push_back(std::make_unique<SimThread>(sim, "t" + std::to_string(i)));
      SimThread* t = threads.back().get();
      if (i % 2 == 0) {
        t->set_main([t] { t->exec(usec(50), [] {}); });
      } else {
        t->set_main([t] { t->exec(usec(5), [t] { t->block(); }); });
      }
      sched.add(*t, i % 4);
      t->wake();
    }
    PeriodicTimer waker(sim, usec(40), [&threads] {
      for (std::size_t i = 1; i < threads.size(); i += 2) threads[i]->wake();
    });
    waker.start();
    sim.run_for(msec(200));
    waker.stop();
    const auto switches = static_cast<std::int64_t>(sched.context_switches());
    for (auto& t : threads) t->finish();
    return std::max<std::int64_t>(switches, 1);
  });
}

ProbeCost probe_apic(SpanRecorder* spans) {
  return measure(spans, "probe.apic", [] {
    constexpr int kRounds = 1000000;
    EmulatedLapic lapic;
    VApicPage vapic;
    Lcg lcg;
    std::int64_t sink = 0;
    for (int i = 0; i < kRounds; ++i) {
      const auto v = static_cast<Vector>(0x30 + lcg.next() % 0xC0);
      lapic.post(v);
      const int d = lapic.deliverable();
      lapic.begin_service(static_cast<Vector>(d));
      sink += lapic.eoi();
      sink += vapic.pi().post(v);
      vapic.sync_pir();
      sink += vapic.deliver();
      sink += vapic.eoi();
    }
    // Keep the loop's results observable.
    return kRounds * 2 + (sink == -1 ? 1 : 0);
  });
}

ProbeCost probe_virtqueue(SpanRecorder* spans) {
  return measure(spans, "probe.virtqueue", [] {
    constexpr int kBatch = 32;
    constexpr int kBatches = 20000;
    const PacketPtr pkt = make_packet(Packet{});
    std::int64_t ops = 0;
    std::int64_t sink = 0;
    for (RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
      Virtqueue q("probe", 256, layout);
      for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatch; ++i) q.add_avail({pkt, 1024});
        sink += q.kick_needed();
        while (auto e = q.pop_avail()) q.push_used(std::move(*e));
        sink += q.interrupt_needed();
        while (q.pop_used()) ++ops;
      }
    }
    return ops + (sink == -1 ? 1 : 0);
  });
}

ProbeCost probe_redirector(SpanRecorder* spans) {
  TestbedOptions o;
  o.config = Es2Config::pi_h_r();
  o.num_vms = 4;
  o.vcpus_per_vm = 4;
  o.stack_vms = true;
  o.vhost_core = 4;
  Testbed tb(o);
  tb.start();
  tb.sim().run_for(msec(30));
  InterruptRedirector* red = tb.es2().redirector();
  return measure(spans, "probe.redirector", [&] {
    constexpr int kSelects = 200000;
    std::int64_t sink = 0;
    for (int i = 0; i < kSelects; ++i) {
      const MsiMessage msg{static_cast<Vector>(0x40 + i % 4), 0,
                           DeliveryMode::kLowestPriority};
      sink += red->select_target(tb.tested_vm(), msg);
    }
    return kSelects + (sink == -1 ? 1 : 0);
  });
}

ProbeCost probe_histogram(SpanRecorder* spans) {
  return measure(spans, "probe.histogram", [] {
    constexpr int kRecords = 2000000;
    Histogram h;
    Lcg lcg;
    for (int i = 0; i < kRecords; ++i) {
      h.record(static_cast<std::int64_t>(lcg.next() % 10000000));
    }
    return h.count();
  });
}

namespace {

TestbedOptions replica_options(const Es2Config& config, bool macro,
                               std::uint64_t seed) {
  TestbedOptions to;
  to.config = config;
  to.seed = seed;
  to.num_vms = macro ? 4 : 1;
  to.vcpus_per_vm = macro ? 4 : 1;
  to.stack_vms = macro;
  to.vhost_core = 4;
  return to;
}

/// The stream cell's endpoints, attached in the runner's order.
struct StreamApps {
  std::vector<std::unique_ptr<NetperfSender>> senders;
  std::vector<std::unique_ptr<PeerStreamReceiver>> peer_rx;
  std::vector<std::unique_ptr<NetperfReceiver>> guest_rx;
  std::vector<std::unique_ptr<PeerStreamSender>> peer_tx;

  StreamApps(Testbed& tb, const StreamOptions& o) {
    const int vcpus = tb.tested_vm().num_vcpus();
    for (int t = 0; t < o.threads; ++t) {
      const std::uint64_t flow = 100 + static_cast<std::uint64_t>(t);
      if (o.vm_sends) {
        senders.push_back(std::make_unique<NetperfSender>(
            tb.guest(), tb.frontend(), flow, o.proto, o.msg_size, t % vcpus));
        tb.guest().add_task(*senders.back());
        senders.back()->register_metrics(tb.metrics());
        peer_rx.push_back(std::make_unique<PeerStreamReceiver>(tb.peer(), flow, o.proto));
        peer_rx.back()->register_metrics(tb.metrics());
      } else {
        guest_rx.push_back(
            std::make_unique<NetperfReceiver>(tb.guest(), tb.frontend(), flow, o.proto));
        guest_rx.back()->register_metrics(tb.metrics());
        PeerStreamSender::Params p;
        p.proto = o.proto;
        p.msg_size = o.msg_size;
        p.udp_rate_pps = o.udp_offered_pps / o.threads;
        p.dupack_threshold = o.dupack_threshold;
        peer_tx.push_back(std::make_unique<PeerStreamSender>(tb.peer(), flow, p));
        peer_tx.back()->register_metrics(tb.metrics());
      }
    }
  }
};

DropCounts link_drops(Testbed& tb) {
  DropCounts d;
  d.wire = static_cast<std::int64_t>(tb.vm_to_peer().packets_dropped() +
                                     tb.peer_to_vm().packets_dropped());
  d.backpressure = static_cast<std::int64_t>(tb.vm_to_peer().packets_shed() +
                                             tb.peer_to_vm().packets_shed());
  d.sock_backlog = tb.backend().rx_dropped();
  return d;
}

void read_es2(Testbed& tb, ReplicaRun* out) {
  InterruptRedirector* red = tb.es2().redirector();
  if (red == nullptr) return;
  out->via_sticky = static_cast<double>(red->via_sticky());
  out->via_online = static_cast<double>(red->via_online());
  out->via_offline = static_cast<double>(red->via_offline_prediction());
  if (red->tracks(tb.tested_vm())) {
    out->tracker_transitions =
        static_cast<double>(red->tracker(tb.tested_vm()).transitions());
  }
}

}  // namespace

ReplicaRun run_replica(const CellSpec& cell, SpanRecorder* spans, int cell_id) {
  ReplicaRun out;
  ScopedSpan span(spans, "replica:" + cell.name, cell_id);
  auto t = Clock::now();
  auto lap = [&t] {
    const double s = seconds_since(t);
    t = Clock::now();
    return s;
  };
  std::unique_ptr<Testbed> tb;
  if (cell.storm) {
    const StormOptions& o = cell.storm_opts;
    std::unique_ptr<ApacheServer> server;
    std::unique_ptr<StormClient> client;
    {
      ScopedSpan s(spans, "harness.build");
      TestbedOptions to = replica_options(o.config, false, o.seed);
      to.guest_params.overload_mitigation = o.mitigation;
      tb = std::make_unique<Testbed>(to);
      ApacheCosts costs;
      costs.syn_backlog = o.syn_backlog;
      costs.accept_queue = o.accept_queue;
      server = std::make_unique<ApacheServer>(tb->guest(), tb->frontend(), 4000, 1,
                                              o.workers, costs);
      client = std::make_unique<StormClient>(tb->peer(), server->listen_flow(),
                                             o.shape, o.syn_rto, o.max_retries,
                                             65536, o.syn_payload);
      server->register_metrics(tb->metrics());
      out.build_s = lap();
    }
    {
      ScopedSpan s(spans, "harness.warmup");
      tb->start();
      tb->sim().run_for(o.warmup);
      out.warmup_s = lap();
    }
    {
      ScopedSpan s(spans, "harness.measure");
      client->begin_window(tb->sim().now());
      client->start();
      tb->sim().run_for(o.shape.ramp_up + o.shape.hold + o.shape.ramp_down +
                        o.cooldown);
      client->stop();
      out.measure_s = lap();
    }
    {
      ScopedSpan s(spans, "harness.harvest");
      DropCounts d = link_drops(*tb);
      d.syn_backlog = server->syn_drops();
      d.accept_queue = server->accept_queue_drops();
      d.accept_shed = server->shed_drops();
      out.counts = counts_of(*harvest_metrics(*tb), d);
      out.counts["established"] = static_cast<double>(client->established());
      out.counts["delivered"] = static_cast<double>(server->requests_served());
      read_es2(*tb, &out);
      out.harvest_s = lap();
    }
    {
      ScopedSpan s(spans, "harness.teardown");
      client.reset();
      server.reset();
      tb.reset();
      out.teardown_s = lap();
    }
    return out;
  }

  const ChaosStreamOptions& co = cell.stream;
  const StreamOptions& o = co.stream;
  std::unique_ptr<StreamApps> apps;
  {
    ScopedSpan s(spans, "harness.build");
    TestbedOptions to = replica_options(o.config, o.macro, o.seed);
    to.audit = co.audit;
    to.audit_period = co.audit_period;
    to.guest_params.tx_watchdog = co.tx_watchdog;
    tb = std::make_unique<Testbed>(to);
    apps = std::make_unique<StreamApps>(*tb, o);
    out.build_s = lap();
  }
  {
    ScopedSpan s(spans, "harness.warmup");
    tb->start();
    for (auto& p : apps->peer_tx) p->start();
    tb->sim().run_for(o.warmup);
    out.warmup_s = lap();
  }
  {
    ScopedSpan s(spans, "harness.measure");
    tb->sim().run_for(o.measure);
    out.measure_s = lap();
  }
  {
    ScopedSpan s(spans, "harness.harvest");
    out.counts = counts_of(*harvest_metrics(*tb), link_drops(*tb));
    out.counts["established"] = 0;
    const double sweeps =
        tb->auditor() != nullptr ? static_cast<double>(tb->auditor()->sweeps()) : 0;
    out.counts["eventcore.fired"] -= sweeps;
    out.counts["eventcore.scheduled"] -= sweeps;
    read_es2(*tb, &out);
    out.harvest_s = lap();
  }
  {
    ScopedSpan s(spans, "harness.teardown");
    apps.reset();
    tb.reset();
    out.teardown_s = lap();
  }
  return out;
}

}  // namespace perfbench
