// Property-based tests: invariants that must hold across parameter sweeps
// (seeds, configurations, quotas, message sizes). Uses parameterized gtest
// suites as property harnesses.
#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiments.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// Property: conservation of packets across the stack, for all configs and
// directions.
// ---------------------------------------------------------------------------

class ConservationProperty
    : public ::testing::TestWithParam<std::tuple<int, bool, std::uint64_t>> {};

TEST_P(ConservationProperty, NothingLostNothingInvented) {
  const auto [config_index, vm_sends, seed] = GetParam();
  StreamOptions o;
  o.config = Es2Config::all4()[config_index];
  o.proto = Proto::kUdp;
  o.msg_size = 512;
  o.vm_sends = vm_sends;
  o.seed = seed;
  o.warmup = msec(50);
  o.measure = msec(200);
  const StreamResult r = run_stream(o);
  EXPECT_GT(r.packets_per_sec, 1000.0);
  EXPECT_EQ(r.drops.sock_backlog, 0);
  // Rates are finite and sane.
  EXPECT_LT(r.packets_per_sec, 1e7);
  EXPECT_GE(r.exits.tig_percent, 0.0);
  EXPECT_LE(r.exits.tig_percent, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsDirectionsSeeds, ConservationProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Bool(),
                       ::testing::Values(1u, 42u)));

// ---------------------------------------------------------------------------
// Property: PI configurations never produce interrupt-related exits,
// whatever the workload shape.
// ---------------------------------------------------------------------------

class PiExitFreeProperty
    : public ::testing::TestWithParam<std::tuple<int, Bytes, std::uint64_t>> {};

TEST_P(PiExitFreeProperty, NoInterruptExitsUnderPi) {
  const auto [proto_int, msg, seed] = GetParam();
  StreamOptions o;
  o.config = Es2Config::pi();
  o.proto = proto_int == 0 ? Proto::kTcp : Proto::kUdp;
  o.msg_size = msg;
  o.vm_sends = true;
  o.seed = seed;
  o.warmup = msec(50);
  o.measure = msec(150);
  const StreamResult r = run_stream(o);
  EXPECT_EQ(r.exits.interrupt_delivery, 0.0);
  EXPECT_EQ(r.exits.interrupt_completion, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ProtosSizesSeeds, PiExitFreeProperty,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values<Bytes>(64, 1024, 4096),
                       ::testing::Values(3u, 9u)));

// ---------------------------------------------------------------------------
// Property: exit-rate ordering Baseline >= PI >= PI+H holds across message
// sizes (the paper's central claim).
// ---------------------------------------------------------------------------

class ExitOrderingProperty : public ::testing::TestWithParam<Bytes> {};

TEST_P(ExitOrderingProperty, TotalExitsShrinkAlongTheStack) {
  const Bytes msg = GetParam();
  auto run_with = [msg](Es2Config cfg) {
    StreamOptions o;
    o.config = cfg;
    o.proto = Proto::kTcp;
    o.msg_size = msg;
    o.vm_sends = true;
    o.warmup = msec(80);
    o.measure = msec(250);
    return run_stream(o);
  };
  const StreamResult base = run_with(Es2Config::baseline());
  const StreamResult pi = run_with(Es2Config::pi());
  const StreamResult pih = run_with(Es2Config::pi_h(4));
  EXPECT_GT(base.exits.total, pi.exits.total * 1.2) << "msg=" << msg;
  // Large messages already batch kicks per multi-segment send, so PI can
  // be near-exitless on its own; the hybrid must never make it worse than
  // noise.
  EXPECT_LE(pih.exits.total, pi.exits.total + 1500.0) << "msg=" << msg;
  // TIG improves monotonically (within measurement noise).
  EXPECT_LT(base.exits.tig_percent, pi.exits.tig_percent);
  EXPECT_LT(pi.exits.tig_percent, pih.exits.tig_percent + 0.2);
}

INSTANTIATE_TEST_SUITE_P(MessageSizes, ExitOrderingProperty,
                         ::testing::Values<Bytes>(256, 1024, 8192));

// ---------------------------------------------------------------------------
// Property: determinism — identical (config, seed) pairs give identical
// results for every configuration.
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, SameSeedSameResult) {
  StreamOptions o;
  o.config = Es2Config::all4()[GetParam()];
  o.proto = Proto::kTcp;
  o.msg_size = 1024;
  o.seed = 1234;
  o.warmup = msec(50);
  o.measure = msec(150);
  const StreamResult a = run_stream(o);
  const StreamResult b = run_stream(o);
  EXPECT_EQ(a.exits.total, b.exits.total);
  EXPECT_EQ(a.exits.io_instruction, b.exits.io_instruction);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.guest_irqs_per_sec, b.guest_irqs_per_sec);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, DeterminismProperty,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Property: redirection only ever picks valid vCPUs and never touches
// per-vCPU vectors, across policies.
// ---------------------------------------------------------------------------

class RedirectPolicyProperty
    : public ::testing::TestWithParam<RedirectPolicy> {};

TEST_P(RedirectPolicyProperty, PingStaysCorrectUnderPolicy) {
  PingOptions o;
  o.config = Es2Config::pi_h_r();
  o.config.policy = GetParam();
  o.samples = 25;
  o.interval = msec(40);
  const PingResult r = run_ping(o);
  // Every probe except in-flight stragglers must come back: redirection
  // never loses or misdelivers interrupts.
  EXPECT_LE(r.lost, 2);
  EXPECT_GE(r.rtt.count(), 23);
}

INSTANTIATE_TEST_SUITE_P(Policies, RedirectPolicyProperty,
                         ::testing::Values(RedirectPolicy::kPaper,
                                           RedirectPolicy::kNoSticky,
                                           RedirectPolicy::kRoundRobin,
                                           RedirectPolicy::kRandomOffline));

// ---------------------------------------------------------------------------
// Property: the guest is never starved — TIG stays in a sane band for all
// stacks under a CPU-burn + stream load.
// ---------------------------------------------------------------------------

class TigBandProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TigBandProperty, TigWithinBand) {
  const auto [config_index, proto_int] = GetParam();
  StreamOptions o;
  o.config = Es2Config::all4()[config_index];
  o.proto = proto_int == 0 ? Proto::kTcp : Proto::kUdp;
  o.msg_size = 1024;
  o.warmup = msec(50);
  o.measure = msec(200);
  const StreamResult r = run_stream(o);
  // With the burn task, the vCPU never idles: TIG in [70, 100).
  EXPECT_GE(r.exits.tig_percent, 70.0);
  EXPECT_LT(r.exits.tig_percent, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndProtos, TigBandProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 1)));

}  // namespace
}  // namespace es2
