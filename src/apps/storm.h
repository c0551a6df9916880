// Connection-storm load generator (overload-resilience workloads).
//
// Drives the guest's listen path the way a SYN-flood-shaped flash crowd
// does: the arrival rate ramps from a calm base to a peak, holds, and
// ramps back down, with a deterministic square-wave "diurnal burst"
// multiplier on top. Connections are TFO-style — the SYN carries a small
// request payload, so every arriving packet costs the guest the full TCP
// receive path (a pure header-only SYN is too cheap to outrun the poll
// loop; real storms carry data). Unanswered SYNs retransmit on an
// aggressive RTO from a bounded pending table, which is what sustains the
// offered load once the server stops answering — the livelock flywheel.
//
// The RTO is a constant, so SYN deadlines come out in send order: the
// client keeps its in-flight SYNs in a FIFO with a single timer on the
// head, not one event per SYN. Each SYN reserves its event order right
// after it is sent and the head timer is filed under that order, so every
// timeout fires at the (time, sequence) position a timer scheduled at
// send time would take.
//
// Everything is deterministic: no RNG, shaped interarrival times and a
// square-wave burst gate only, so same-seed storm runs are bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/ring.h"
#include "net/peer.h"
#include "stats/histogram.h"

namespace es2 {

/// Arrival-rate envelope: base -> peak ramp, hold, ramp down, then base
/// again (the post-storm recovery phase), with a square-wave burst
/// multiplier (duty fraction of each period runs at rate * burst_mult).
struct StormShape {
  double base_rate = 20000.0;    // conn/s before and after the storm
  double peak_rate = 120000.0;   // conn/s at the top of the ramp
  SimDuration ramp_up = msec(300);
  SimDuration hold = msec(600);
  SimDuration ramp_down = msec(300);
  SimDuration burst_period = msec(100);
  double burst_duty = 0.5;
  double burst_mult = 1.5;

  /// Instantaneous arrival rate `t` after the storm started.
  double rate_at(SimDuration t) const;
};

/// The load generator proper (peer side). Counts establishments (SYN/ACK
/// received), retransmissions, abandoned attempts (retry cap) and goodput
/// bytes (page payload received back on established connections).
class StormClient : public Snapshottable {
 public:
  StormClient(PeerHost& peer, std::uint64_t listen_flow, StormShape shape,
              SimDuration syn_rto = msec(50), int max_retries = 5,
              int max_pending = 65536, Bytes syn_payload = 64);

  void start();
  void stop() { running_ = false; }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t established() const { return established_; }
  std::int64_t retries() const { return retries_; }
  /// Attempts given up after max_retries unanswered SYNs.
  std::int64_t abandoned() const { return abandoned_; }
  /// Attempts never made because the pending table was full (client-side
  /// port exhaustion — the client's own finite-capacity bound).
  std::int64_t pending_overflows() const { return pending_overflows_; }
  /// SYNs whose timeout has not fired yet.
  std::size_t syns_awaiting_rto() const { return rto_fifo_.size(); }
  Bytes goodput_bytes() const { return goodput_bytes_; }
  const Histogram& connect_time() const { return connect_time_; }

  /// Measurement-window helpers (same pattern as AbClient).
  void begin_window(SimTime now);
  double conns_per_sec(SimTime now) const;
  double goodput_mbps(SimTime now) const;
  std::int64_t established_in_window() const {
    return established_ - established_base_;
  }

  void snapshot_state(SnapshotWriter& w) const override;

 private:
  /// Connection id -> first-SYN time: a flat Robin Hood hash table
  /// (linear probing, backward-shift deletion). Ids are sequential and
  /// non-zero (0 marks a free slot) and hash to themselves, so the live
  /// window of ids sits at home slots like a ring — each operation touches
  /// one or two cache lines and nothing allocates. The table starts small
  /// (calm arrivals and set-up need little) and is reserved once, at full
  /// size for `max_pending` entries at load <= 1/2, when the first storm
  /// pushes it past that.
  class PendingTable {
   public:
    explicit PendingTable(int max_entries);
    std::size_t size() const { return size_; }
    /// Inserts unless `key` is present (emplace semantics).
    void emplace(std::uint64_t key, SimTime value);
    /// Null when absent.
    const SimTime* find(std::uint64_t key) const;
    void erase(std::uint64_t key);
    /// Live keys in ascending order (snapshot encoding).
    std::vector<std::uint64_t> sorted_keys() const;

   private:
    struct Slot {
      std::uint64_t key = 0;
      SimTime value = 0;
    };
    /// Probe distance of the occupant of slot `i` from its home slot.
    std::size_t dist(std::size_t i) const {
      return (i - slots_[i].key) & mask_;
    }
    /// Slot holding `key`, or npos.
    std::size_t locate(std::uint64_t key) const;
    void place(Slot slot);
    void reserve_full();

    static constexpr std::size_t kInitialSlots = 1024;
    static constexpr std::size_t npos = ~std::size_t{0};
    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_ = 0;
    std::size_t full_slots_ = 0;  // the one-time reservation
    std::size_t size_ = 0;
  };

  /// One sent SYN awaiting its timeout.
  struct RtoEntry {
    SimTime deadline = 0;
    std::uint64_t order = 0;  // event order reserved when the SYN was sent
    std::uint64_t conn_id = 0;
    int tries = 0;
  };
  /// The FIFO grows by doubling up to this size, then is reserved once
  /// for 2 x max_pending entries (calm arrivals need little).
  static constexpr std::size_t kRtoFifoSmall = 512;

  void open_connection();
  void send_syn(std::uint64_t conn_id, int tries);
  /// Files the one timeout event on the FIFO head.
  void arm_rto();
  void on_rto();
  void on_packet(const PacketPtr& packet);

  PeerHost& peer_;
  std::uint64_t listen_flow_;
  StormShape shape_;
  SimDuration syn_rto_;
  int max_retries_;
  int max_pending_;
  Bytes syn_payload_;
  bool running_ = false;
  SimTime started_at_ = 0;
  std::uint64_t next_conn_ = 1;
  std::int64_t attempted_ = 0;
  std::int64_t established_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t abandoned_ = 0;
  std::int64_t pending_overflows_ = 0;
  Bytes goodput_bytes_ = 0;
  std::int64_t established_base_ = 0;
  Bytes goodput_base_ = 0;
  SimTime window_start_ = 0;
  Histogram connect_time_;
  PendingTable pending_;  // conn -> first SYN
  // Every sent SYN until its timeout fires (also after stop()), in send
  // order. Not serialized: it stands in for scheduled callbacks, which
  // restore re-executes (DESIGN.md §4f).
  Ring<RtoEntry> rto_fifo_;
};

}  // namespace es2
