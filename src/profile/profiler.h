// Deterministic zero-alloc scoped profiler for the simulated event path.
//
// Two complementary scope kinds, both passive (no RNG draws, no scheduled
// events, no model-state writes — enabling the profiler cannot perturb a
// run, asserted by tests):
//
//  * **Async component spans** — `span_begin`/`span_end` bracket a unit of
//    simulated work that crosses continuation boundaries (a vhost worker
//    turn, a NAPI poll pass, dispatch→EOI interrupt service). They
//    accumulate per-(component, key) call counts and *sim-time* totals,
//    and push slices into a fixed ring for Perfetto export next to the
//    PR 3 journey bars. The key is the per-queue / per-vm label dimension
//    (flat queue index for backend scopes, vm*16+vcpu for guest scopes).
//
//  * **Sync scopes** — RAII `Profiler::Scope` brackets a synchronous C++
//    region and accumulates *host wall-time* (self and total via a
//    preallocated path tree) plus call counts. Collapsed-stack export of
//    the tree is flamegraph-ready: "where does the simulator itself burn
//    host CPU".
//
// Sim-time totals and call counts are deterministic (same seed →
// identical); host-time is measurement noise by nature and is excluded
// from the byte-identical exports unless explicitly requested.
//
// Everything is preallocated at construction: the span table, the scope
// tree (fixed node budget, overflow counted not grown), the scope stack
// and the slice ring — the steady-state record paths perform zero heap
// allocations (asserted via es2_alloc_hook).
//
// Like the tracer's, the model-layer call sites (profile/hooks.h) are
// always compiled in and cost one branch while no profiler is enabled.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "base/units.h"

namespace es2 {

enum class ProfComp : std::uint8_t {
  kVhostTurnTx = 0,  // TX handler turn (key = flat queue index)
  kVhostTurnRx,      // RX handler turn (key = flat queue index)
  kVhostWireRx,      // wire arrival into the backend (key = pair)
  kVhostMsi,         // raise_msi -> router -> delivery (key = vm)
  kGuestNapi,        // guest NAPI poll pass (key = vm*16+pair)
  kGuestIrqService,  // dispatch -> EOI (key = vm*16+vcpu)
  kVcpuExit,         // vm-exit handling (key = vm*16+vcpu)
  kCfsResched,       // CFS pick-next/resched (key = core)
  kCount
};

inline constexpr std::size_t kProfComps =
    static_cast<std::size_t>(ProfComp::kCount);

/// Stable lowercase name ("vhost_turn_tx", ...).
const char* prof_comp_name(ProfComp c);

struct ProfileOptions {
  /// Harness convenience: the Testbed only constructs a Profiler (and
  /// attaches it to the simulator) when set.
  bool enabled = false;
  /// Slice ring capacity; once full the ring overwrites the oldest.
  std::size_t slice_capacity = std::size_t{1} << 14;
};

/// One recorded span slice (for Perfetto export).
struct ProfSlice {
  SimTime begin = 0;
  SimTime end = 0;
  ProfComp comp = ProfComp::kVhostTurnTx;
  std::uint16_t key = 0;
};

/// Aggregate for one (component, key): spans only.
struct ProfSpanStat {
  ProfComp comp = ProfComp::kVhostTurnTx;
  std::uint16_t key = 0;
  std::int64_t count = 0;
  std::int64_t sim_ns = 0;
};

/// One sync-scope tree node (preorder; parent index -1 = root).
struct ProfNode {
  std::int32_t parent = -1;
  ProfComp comp = ProfComp::kVhostTurnTx;
  std::int64_t calls = 0;
  std::int64_t host_ns = 0;  // total (self = total - children totals)
};

/// Self-contained snapshot, safe to keep past the profiler's teardown.
struct ProfileData {
  std::vector<ProfSpanStat> spans;  // (comp, key) ascending, count > 0
  std::vector<ProfNode> nodes;      // creation (deterministic) order
  std::vector<ProfSlice> slices;    // oldest first
  std::uint64_t slices_total = 0;   // recorded incl. overwritten
  std::uint64_t dropped = 0;        // scope pushes lost to budget caps
};

class Profiler {
 public:
  explicit Profiler(ProfileOptions options = {});
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // --- async component spans (sim-time) --------------------------------
  // One open slot per (comp, key); a begin over an already-open slot
  // closes nothing and counts as dropped (the model's span pairs are
  // strictly nested per slot, so this only fires on instrumentation
  // bugs). Keys clamp into [0, kMaxKeys).
  void span_begin(ProfComp comp, unsigned key, SimTime now);
  void span_end(ProfComp comp, unsigned key, SimTime now);

  // --- sync scopes (host wall-time) ------------------------------------
  void push(ProfComp comp);
  void pop();
  class Scope {
   public:
    Scope(Profiler* p, ProfComp comp) : p_(p) {
      if (p_ != nullptr) p_->push(comp);
    }
    ~Scope() {
      if (p_ != nullptr) p_->pop();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* p_;
  };

  /// Deterministic aggregate snapshot (host_ns fields excepted).
  ProfileData data() const;

  static constexpr std::size_t kMaxKeys = 256;

 private:
  static constexpr std::size_t kMaxNodes = 512;
  static constexpr std::size_t kMaxDepth = 32;

  struct SpanSlot {
    SimTime open = -1;
    std::int64_t count = 0;
    std::int64_t sim_ns = 0;
  };
  struct TreeNode {
    std::int32_t parent = -1;
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    ProfComp comp = ProfComp::kVhostTurnTx;
    std::int64_t calls = 0;
    std::int64_t host_ns = 0;
  };
  struct Frame {
    std::int32_t node = -1;
    std::chrono::steady_clock::time_point entered;
  };

  std::int32_t child_of(std::int32_t parent, ProfComp comp);

  bool enabled_ = false;
  std::vector<SpanSlot> span_slots_;  // kProfComps x kMaxKeys
  std::vector<TreeNode> tree_;        // capacity kMaxNodes, never grown
  std::int32_t root_first_ = -1;      // head of the root sibling chain
  std::vector<Frame> stack_;          // capacity kMaxDepth, never grown
  std::size_t overflow_depth_ = 0;    // pushes beyond kMaxDepth (unstored)
  std::vector<ProfSlice> ring_;       // capacity slice_capacity
  std::size_t ring_capacity_;
  std::uint64_t slices_total_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace es2
