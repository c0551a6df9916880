#include "apps/storm.h"

#include <algorithm>
#include <vector>

#include "base/assert.h"

namespace es2 {

StormClient::PendingTable::PendingTable(int max_entries) {
  full_slots_ = kInitialSlots;
  while (full_slots_ < 2 * static_cast<std::size_t>(max_entries)) {
    full_slots_ *= 2;
  }
  slots_ = std::make_unique<Slot[]>(kInitialSlots);
  mask_ = kInitialSlots - 1;
}

std::size_t StormClient::PendingTable::locate(std::uint64_t key) const {
  std::size_t i = key & mask_;
  for (std::size_t d = 0;; ++d, i = (i + 1) & mask_) {
    if (slots_[i].key == key) return i;
    // An empty slot, or an occupant closer to home than we would be, ends
    // the run our key would have been placed in.
    if (slots_[i].key == 0 || dist(i) < d) return npos;
  }
}

void StormClient::PendingTable::place(Slot slot) {
  std::size_t i = slot.key & mask_;
  for (std::size_t d = 0;; ++d, i = (i + 1) & mask_) {
    if (slots_[i].key == 0) {
      slots_[i] = slot;
      return;
    }
    const std::size_t occupant = dist(i);
    if (occupant < d) {
      std::swap(slot, slots_[i]);  // Robin Hood: the poorer entry stays
      d = occupant;
    }
  }
}

void StormClient::PendingTable::reserve_full() {
  const std::size_t old_slots = mask_ + 1;
  std::unique_ptr<Slot[]> old = std::move(slots_);
  slots_ = std::make_unique<Slot[]>(full_slots_);
  mask_ = full_slots_ - 1;
  for (std::size_t i = 0; i < old_slots; ++i) {
    if (old[i].key != 0) place(old[i]);
  }
}

void StormClient::PendingTable::emplace(std::uint64_t key, SimTime value) {
  ES2_DCHECK(key != 0);
  if (locate(key) != npos) return;
  if (2 * (size_ + 1) > mask_ + 1) {
    ES2_CHECK_MSG(mask_ + 1 < full_slots_, "storm pending table full");
    reserve_full();
  }
  place(Slot{key, value});
  ++size_;
}

const SimTime* StormClient::PendingTable::find(std::uint64_t key) const {
  const std::size_t i = locate(key);
  return i == npos ? nullptr : &slots_[i].value;
}

void StormClient::PendingTable::erase(std::uint64_t key) {
  std::size_t hole = locate(key);
  if (hole == npos) return;
  --size_;
  // Backward shift: displaced successors move one slot closer to home
  // until the run ends (empty slot or an occupant already at home).
  for (std::size_t j = (hole + 1) & mask_;
       slots_[j].key != 0 && dist(j) > 0; j = (j + 1) & mask_) {
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
}

std::vector<std::uint64_t> StormClient::PendingTable::sorted_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(size_);
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (slots_[i].key != 0) keys.push_back(slots_[i].key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

double StormShape::rate_at(SimDuration t) const {
  double r;
  if (t < ramp_up && ramp_up > 0) {
    r = base_rate + (peak_rate - base_rate) * static_cast<double>(t) /
                        static_cast<double>(ramp_up);
  } else if (t < ramp_up + hold) {
    r = peak_rate;
  } else if (t < ramp_up + hold + ramp_down && ramp_down > 0) {
    const SimDuration into = t - ramp_up - hold;
    r = peak_rate - (peak_rate - base_rate) * static_cast<double>(into) /
                        static_cast<double>(ramp_down);
  } else {
    r = base_rate;
  }
  if (burst_period > 0) {
    const auto phase = static_cast<double>(t % burst_period);
    if (phase < burst_duty * static_cast<double>(burst_period)) {
      r *= burst_mult;
    }
  }
  return std::max(r, 1.0);
}

StormClient::StormClient(PeerHost& peer, std::uint64_t listen_flow,
                         StormShape shape, SimDuration syn_rto,
                         int max_retries, int max_pending, Bytes syn_payload)
    : peer_(peer),
      listen_flow_(listen_flow),
      shape_(shape),
      syn_rto_(syn_rto),
      max_retries_(max_retries),
      max_pending_(max_pending),
      syn_payload_(syn_payload),
      pending_(max_pending) {
  ES2_CHECK(shape.base_rate > 0 && shape.peak_rate >= shape.base_rate);
  ES2_CHECK(syn_rto > 0 && max_retries >= 0 && max_pending > 0);
  peer.register_flow(listen_flow,
                     [this](const PacketPtr& p) { on_packet(p); });
}

void StormClient::start() {
  ES2_CHECK(!running_);
  running_ = true;
  started_at_ = peer_.sim().now();
  window_start_ = started_at_;
  open_connection();
}

void StormClient::open_connection() {
  if (!running_) return;
  const SimTime now = peer_.sim().now();
  const std::uint64_t conn = next_conn_++;
  if (static_cast<int>(pending_.size()) >= max_pending_) {
    ++pending_overflows_;
  } else {
    ++attempted_;
    send_syn(conn, now, 0);
  }
  const double rate = shape_.rate_at(now - started_at_);
  const auto interval = static_cast<SimDuration>(1e9 / rate);
  peer_.sim().after(std::max<SimDuration>(interval, 1),
                    [this] { open_connection(); });
}

void StormClient::send_syn(std::uint64_t conn_id, SimTime first_attempt,
                           int tries) {
  if (!running_) return;
  pending_.emplace(conn_id, first_attempt);
  Packet syn;
  syn.proto = Proto::kTcp;
  syn.flow = listen_flow_;
  // TFO-style: the SYN carries the request, so the guest pays the full
  // TCP-with-payload receive cost for every storm packet.
  syn.payload = syn_payload_;
  syn.wire_size = syn_payload_ + kTcpUdpHeader;
  syn.flags.syn = true;
  syn.probe_id = conn_id;
  peer_.send(make_packet(std::move(syn)));
  peer_.sim().after(syn_rto_, [this, conn_id, first_attempt, tries] {
    if (!running_) return;
    if (pending_.find(conn_id) == nullptr) return;  // established meanwhile
    pending_.erase(conn_id);
    if (tries + 1 >= max_retries_) {
      // Retry budget exhausted: the user gave up. This is what eventually
      // deflates the retransmit flywheel once the ramp ends.
      ++abandoned_;
      return;
    }
    ++retries_;
    send_syn(conn_id, first_attempt, tries + 1);
  });
}

void StormClient::on_packet(const PacketPtr& packet) {
  if (packet->flags.syn && packet->flags.ack) {
    const SimTime* first_syn = pending_.find(packet->probe_id);
    if (first_syn == nullptr) return;  // late SYN/ACK after abandonment
    connect_time_.record(peer_.sim().now() - *first_syn);
    pending_.erase(packet->probe_id);
    ++established_;
    return;
  }
  // Page data served back on an established connection.
  goodput_bytes_ += packet->payload;
}

void StormClient::begin_window(SimTime now) {
  established_base_ = established_;
  goodput_base_ = goodput_bytes_;
  window_start_ = now;
}

double StormClient::conns_per_sec(SimTime now) const {
  const SimDuration w = now - window_start_;
  if (w <= 0) return 0.0;
  return static_cast<double>(established_ - established_base_) /
         to_seconds(w);
}

double StormClient::goodput_mbps(SimTime now) const {
  return mbps(goodput_bytes_ - goodput_base_, now - window_start_);
}

void StormClient::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(listen_flow_);
  w.put_bool(running_);
  w.put_i64(started_at_);
  w.put_u64(next_conn_);
  w.put_i64(attempted_);
  w.put_i64(established_);
  w.put_i64(retries_);
  w.put_i64(abandoned_);
  w.put_i64(pending_overflows_);
  w.put_i64(goodput_bytes_);
  w.put_i64(connect_time_.count());
  const std::vector<std::uint64_t> keys = pending_.sorted_keys();
  w.put_u32(static_cast<std::uint32_t>(keys.size()));
  for (std::uint64_t k : keys) {
    w.put_u64(k);
    w.put_i64(*pending_.find(k));
  }
}

}  // namespace es2
