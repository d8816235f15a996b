#include "net/reliable.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "util/assert.hpp"

namespace mdo::net {
namespace {

constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;
/// Frames past the cumulative point one ACK can report held.
constexpr std::uint32_t kSackBits = 64;
/// Later-transmitted frames acked before a frame is resent without
/// waiting for its timeout (TCP's duplicate threshold).
constexpr std::uint32_t kDupThreshold = 3;
/// Transmission numbers stop here: an echo of it names no one copy.
constexpr std::uint8_t kTxSaturated = 255;
/// Floor of the RTO's variance term (RFC 9002's kGranularity).
constexpr sim::TimeNs kGranularity = sim::milliseconds(1.0);
/// A frame's RTO grows by this factor per timeout resend, up to kRtoMax.
constexpr double kRtoBackoff = 2.0;
constexpr sim::TimeNs kRtoMax = sim::seconds(4.0);
/// Per-peer quarantine byte bound (the frame bound is configurable).
constexpr std::size_t kQuarantineMaxBytes = std::size_t{4} << 20;

/// [seq:u32][type:u8][tx:u8][pad:2]; see the wire format in reliable.hpp.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kTypeByte = 4;
constexpr std::size_t kTxByte = 5;
/// ACK payload: [sack:u64][echo_seq:u32].
constexpr std::size_t kAckBodyBytes = 12;

struct WireHeader {
  std::uint32_t seq = 0;  ///< DATA: sequence number; ACK: cumulative ack
  std::uint8_t type = kData;
  std::uint8_t tx = 0;    ///< DATA: transmission number; ACK: echoed one
};

void frame(Packet& packet, const WireHeader& hdr) {
  std::byte head[kHeaderBytes] = {};
  std::memcpy(head, &hdr.seq, sizeof(hdr.seq));
  head[kTypeByte] = std::byte{hdr.type};
  head[kTxByte] = std::byte{hdr.tx};
  Bytes framed;
  framed.reserve(kHeaderBytes + packet.payload.size());
  framed.insert(framed.end(), head, head + kHeaderBytes);
  framed.insert(framed.end(), packet.payload.begin(), packet.payload.end());
  packet.payload = std::move(framed);
}

bool deframe(Packet& packet, WireHeader& hdr) {
  if (packet.payload.size() < kHeaderBytes) return false;
  std::memcpy(&hdr.seq, packet.payload.data(), sizeof(hdr.seq));
  hdr.type = std::to_integer<std::uint8_t>(packet.payload[kTypeByte]);
  hdr.tx = std::to_integer<std::uint8_t>(packet.payload[kTxByte]);
  if (hdr.type != kData && hdr.type != kAck) return false;
  packet.payload.erase(packet.payload.begin(),
                       packet.payload.begin() +
                           static_cast<std::ptrdiff_t>(kHeaderBytes));
  return true;
}

/// Bit i set <=> the receiver holds frame expected + 1 + i.
std::uint64_t sack_bitmap(const std::map<std::uint32_t, Packet>& buffered,
                          std::uint32_t expected) {
  std::uint64_t bits = 0;
  for (auto it = buffered.begin();
       it != buffered.end() && it->first - expected <= kSackBits; ++it) {
    bits |= std::uint64_t{1} << (it->first - expected - 1);
  }
  return bits;
}

}  // namespace

ReliableDevice::ReliableDevice(ReliableConfig config, const Topology* topo)
    : config_(config), topo_(topo) {
  MDO_CHECK(config_.rto_initial > 0);
  MDO_CHECK(config_.rto_initial <= kRtoMax);
  MDO_CHECK(config_.give_up_budget > 0);
  MDO_CHECK(config_.quarantine_max_frames > 0);
}

std::size_t ReliableDevice::unacked_frames() const {
  std::size_t total = 0;
  for (const auto& [key, flow] : senders_) total += flow.unacked.size();
  return total;
}

std::size_t ReliableDevice::buffered_packets() const {
  std::size_t total = 0;
  for (const auto& [key, flow] : receivers_) total += flow.buffered.size();
  return total;
}

std::vector<ReliableDevice::FrameTimer> ReliableDevice::flow_frames(
    NodeId src, NodeId dst) const {
  std::vector<FrameTimer> out;
  auto it = senders_.find({src, dst});
  if (it == senders_.end()) return out;
  for (const auto& [seq, pending] : it->second.unacked) {
    out.push_back({seq, pending.rto, pending.deadline(), pending.sacked});
  }
  return out;
}

std::optional<ReliableDevice::RttEstimate> ReliableDevice::flow_rtt(
    NodeId src, NodeId dst) const {
  auto it = senders_.find({src, dst});
  if (it == senders_.end()) return std::nullopt;
  return it->second.rtt;
}

sim::TimeNs ReliableDevice::fresh_rto(const SenderFlow& flow) const {
  if (!flow.rtt.has_value()) return config_.rto_initial;
  return std::min(flow.rtt->srtt + std::max(kGranularity, 4 * flow.rtt->rttvar),
                  kRtoMax);
}

ReliableDevice::Quarantine* ReliableDevice::quarantined(NodeId peer) {
  auto it = quarantine_.find(peer);
  if (it == quarantine_.end() || !it->second.active) return nullptr;
  return &it->second;
}

bool ReliableDevice::peer_quarantined(NodeId peer) const {
  auto it = quarantine_.find(peer);
  return it != quarantine_.end() && it->second.active;
}

void ReliableDevice::note_quarantine_peaks(const Quarantine& q) {
  counters_.quarantine_peak_frames =
      std::max<std::uint64_t>(counters_.quarantine_peak_frames, q.frames);
  counters_.quarantine_peak_bytes =
      std::max<std::uint64_t>(counters_.quarantine_peak_bytes, q.bytes);
}

void ReliableDevice::maybe_trip_congestion(NodeId peer, Quarantine& q) {
  if (q.congested) return;
  if (q.frames >= config_.quarantine_max_frames ||
      q.bytes >= kQuarantineMaxBytes) {
    q.congested = true;
    ++counters_.backpressure_events;
    if (on_congestion_change_) on_congestion_change_(peer, true);
  }
}

bool ReliableDevice::prepare_send(Packet& packet) {
  MDO_CHECK_MSG(host_ != nullptr,
                "ReliableDevice needs a fabric host (timers, injection)");
  FlowKey key{packet.src, packet.dst};
  SenderFlow& flow = senders_[key];
  std::uint32_t seq = flow.next_seq++;
  frame(packet, {seq, kData, 0});
  Pending pending;
  pending.frame = packet;  // framed copy, pre-checksum/fault/delay
  pending.first_sent = host_->host_now();
  pending.last_sent = pending.first_sent;
  pending.rto = fresh_rto(flow);
  Quarantine* q = quarantined(packet.dst);
  if (q != nullptr) {
    // The peer is suspect: sequence the frame but hold it off the wire.
    // The unacked map doubles as the bounded quarantine buffer; the
    // frame replays (in seq order) when the suspect is demoted.
    pending.on_wire = false;
    ++counters_.frames_held;
    q->frames += 1;
    q->bytes += pending.frame.payload.size();
    flow.unacked.emplace(seq, std::move(pending));
    ++counters_.data_sent;
    note_quarantine_peaks(*q);
    maybe_trip_congestion(packet.dst, *q);
    return false;
  }
  pending.tx_order = flow.next_tx++;
  pending.first_tx_order = pending.tx_order;
  const sim::TimeNs deadline = pending.deadline();
  flow.unacked.emplace(seq, std::move(pending));
  ++counters_.data_sent;
  arm_timer(key, flow, deadline);
  return true;
}

void ReliableDevice::send_transform(std::vector<Packet>& packets,
                                    SendContext&) {
  std::vector<Packet> out;
  out.reserve(packets.size());
  for (auto& p : packets) {
    if (prepare_send(p)) out.push_back(std::move(p));
  }
  packets = std::move(out);
}

void ReliableDevice::arm_timer(const FlowKey& key, SenderFlow& flow,
                               sim::TimeNs deadline) {
  // Lazy: a live timer due no later than `deadline` fires first, finds
  // nothing (or less) due, and re-arms for whatever is left.
  if (flow.timer_at != 0 && flow.timer_at <= deadline) return;
  flow.timer_at = deadline;
  const sim::TimeNs dt = std::max<sim::TimeNs>(0, deadline - host_->host_now());
  host_->host_schedule(dt, [this, key, deadline] { on_timeout(key, deadline); });
}

void ReliableDevice::rearm_timer(const FlowKey& key, SenderFlow& flow) {
  sim::TimeNs earliest = 0;
  for (const auto& [seq, pending] : flow.unacked) {
    if (!pending.resendable()) continue;
    if (earliest == 0 || pending.deadline() < earliest) {
      earliest = pending.deadline();
    }
  }
  if (earliest != 0) arm_timer(key, flow, earliest);
}

void ReliableDevice::transmit(SenderFlow& flow, Pending& pending,
                              sim::TimeNs now) {
  pending.last_sent = now;
  pending.tx_order = flow.next_tx++;
  pending.acked_after = 0;
  Packet copy = pending.frame;
  host_->inject_send(this, std::move(copy));
}

void ReliableDevice::resend(SenderFlow& flow, Pending& pending,
                            sim::TimeNs now) {
  ++counters_.retransmits;
  if (pending.tx < kTxSaturated) {
    ++pending.tx;
    pending.resent_at.push_back(now);
    pending.frame.payload[kTxByte] = std::byte{pending.tx};
  }
  transmit(flow, pending, now);
}

void ReliableDevice::clear_flow(const FlowKey& key, SenderFlow& flow) {
  Quarantine* q = quarantined(key.second);
  if (q != nullptr) {
    for (const auto& [seq, pending] : flow.unacked) {
      if (q->frames > 0) --q->frames;
      q->bytes -= std::min(q->bytes, pending.frame.payload.size());
    }
  }
  flow.unacked.clear();
  flow.stall_start = 0;
}

void ReliableDevice::on_timeout(const FlowKey& key, sim::TimeNs fire_at) {
  SenderFlow& flow = senders_[key];
  // A later arm for an earlier deadline superseded this expiry. Handling
  // a live expiry moves timer_at off fire_at (every deadline left is
  // later), so a second timer due at the same instant reads as stale.
  if (fire_at != flow.timer_at) return;
  flow.timer_at = 0;
  if (flow.unacked.empty()) {
    // Everything acked since the timer was set; quiesce this flow.
    flow.stall_start = 0;
    return;
  }
  if (!host_->host_node_up(key.first)) {
    // The *sender* crashed: its frames are squashed at the fabric, so
    // retransmitting is pointless theater. Drop the flow state quietly —
    // a dead node surfaces no callbacks.
    clear_flow(key, flow);
    return;
  }
  if (peer_quarantined(key.second)) {
    // The peer is suspect: pause. No retransmission (it would vanish on
    // the partitioned link anyway), no give-up budget burned toward a
    // false unreachable verdict. resume_peer re-arms the timer.
    return;
  }
  const sim::TimeNs now = host_->host_now();
  const bool overdue = std::any_of(
      flow.unacked.begin(), flow.unacked.end(), [now](const auto& entry) {
        return entry.second.resendable() && entry.second.deadline() <= now;
      });
  if (overdue) {
    if (flow.stall_start == 0) {
      flow.stall_start = now;
    } else if (now - flow.stall_start > config_.give_up_budget) {
      // Give up: no ack progress across give_up_budget of fabric time.
      // Abandon the in-flight frames (at-most-once from here on) and
      // surface the unreachable peer — the failure detector's second,
      // retransmission-based signal.
      const NodeId self = key.first;
      const NodeId peer = key.second;
      clear_flow(key, flow);
      ++counters_.flows_abandoned;
      if (on_peer_unreachable_) on_peer_unreachable_(peer, self);
      return;
    }
    // Resend only the frames whose own deadline passed; each backs off
    // alone, so one loss never stretches its neighbours' timeouts.
    for (auto& [seq, pending] : flow.unacked) {
      if (!pending.resendable() || pending.deadline() > now) continue;
      pending.rto = std::min(
          static_cast<sim::TimeNs>(static_cast<double>(pending.rto) *
                                   kRtoBackoff),
          kRtoMax);
      resend(flow, pending, now);
    }
  }
  rearm_timer(key, flow);
}

void ReliableDevice::resume_peer(NodeId peer) {
  const sim::TimeNs now = host_->host_now();
  for (auto& [key, flow] : senders_) {
    if (key.second != peer || flow.unacked.empty()) continue;
    // Replay everything the receiver lacks in sequence order: frames that
    // were on the wire before the quarantine go out as their next copy,
    // held frames as first transmissions.
    for (auto& [seq, pending] : flow.unacked) {
      if (pending.sacked) continue;
      pending.rto = fresh_rto(flow);
      if (pending.on_wire) {
        resend(flow, pending, now);
        continue;
      }
      pending.on_wire = true;
      pending.first_sent = now;
      transmit(flow, pending, now);
      pending.first_tx_order = pending.tx_order;
    }
    flow.stall_start = 0;
    rearm_timer(key, flow);
  }
}

void ReliableDevice::set_peer_quarantined(NodeId peer, bool on) {
  Quarantine& q = quarantine_[peer];
  if (q.active == on) return;
  if (on) {
    q.active = true;
    ++counters_.quarantines_started;
    // Frames already in flight count against the bound too: they are
    // memory held on this peer's behalf just like newly parked ones.
    q.frames = 0;
    q.bytes = 0;
    for (const auto& [key, flow] : senders_) {
      if (key.second != peer) continue;
      for (const auto& [seq, pending] : flow.unacked) {
        q.frames += 1;
        q.bytes += pending.frame.payload.size();
      }
    }
    note_quarantine_peaks(q);
    maybe_trip_congestion(peer, q);
  } else {
    q.active = false;
    ++counters_.quarantines_resumed;
    last_resume_at_ = host_ != nullptr ? host_->host_now() : 0;
    resume_peer(peer);
    q.frames = 0;
    q.bytes = 0;
    if (q.congested) {
      q.congested = false;
      if (on_congestion_change_) on_congestion_change_(peer, false);
    }
  }
}

void ReliableDevice::abandon_peer(NodeId peer) {
  // Confirmed dead: recovery owns the peer now. Flows die quietly — no
  // unreachable callback, no replay.
  auto qit = quarantine_.find(peer);
  const bool was_congested = qit != quarantine_.end() && qit->second.congested;
  if (qit != quarantine_.end()) quarantine_.erase(qit);
  for (auto& [key, flow] : senders_) {
    if (key.second != peer) continue;
    flow.unacked.clear();
    flow.stall_start = 0;
  }
  ++counters_.peers_abandoned;
  if (was_congested && on_congestion_change_) {
    on_congestion_change_(peer, false);
  }
}

std::optional<Packet> ReliableDevice::receive_transform(Packet packet) {
  MDO_CHECK_MSG(host_ != nullptr,
                "ReliableDevice needs a fabric host (timers, injection)");
  WireHeader hdr;
  if (!deframe(packet, hdr)) {
    // Only reachable without a checksum device below; treat like loss.
    ++counters_.malformed_dropped;
    return std::nullopt;
  }
  if (hdr.type == kAck) {
    std::uint64_t sack = 0;
    std::optional<Echo> echo;
    if (packet.payload.size() == kAckBodyBytes) {
      echo.emplace();
      std::memcpy(&sack, packet.payload.data(), sizeof(sack));
      std::memcpy(&echo->seq, packet.payload.data() + sizeof(sack),
                  sizeof(echo->seq));
      echo->tx = hdr.tx;
    } else if (!packet.payload.empty()) {
      ++counters_.malformed_dropped;
      return std::nullopt;
    }
    handle_ack(packet, hdr.seq, sack, echo);
    return std::nullopt;
  }
  return handle_data(std::move(packet), {hdr.seq, hdr.tx});
}

void ReliableDevice::sample_rtt(SenderFlow& flow, const Echo& echo,
                                sim::TimeNs now, bool wan) {
  auto it = flow.unacked.find(echo.seq);
  // An echo of a frame acked before, or of a copy never sent, names no
  // send time this sender still knows.
  if (it == flow.unacked.end()) return;
  const Pending& pending = it->second;
  if (!pending.on_wire || echo.tx > pending.tx) return;
  if (echo.tx < pending.tx) ++counters_.spurious_retransmits;
  if (echo.tx == kTxSaturated) return;
  const sim::TimeNs sent =
      echo.tx == 0 ? pending.first_sent : pending.resent_at[echo.tx - 1U];
  const sim::TimeNs rtt = now - sent;
  // RFC 6298 section 2, with RTTVAR updated from the SRTT before this
  // sample.
  if (!flow.rtt.has_value()) {
    flow.rtt = RttEstimate{rtt, rtt / 2};
  } else {
    RttEstimate& est = *flow.rtt;
    const sim::TimeNs err = est.srtt > rtt ? est.srtt - rtt : rtt - est.srtt;
    est.rttvar = (3 * est.rttvar + err) / 4;
    est.srtt = (7 * est.srtt + rtt) / 8;
  }
  ack_rtt_ns_.add(static_cast<double>(rtt));
  if (wan) wan_ack_rtt_ns_.add(static_cast<double>(rtt));
}

void ReliableDevice::handle_ack(const Packet& packet, std::uint32_t cumulative,
                                std::uint64_t sack,
                                const std::optional<Echo>& echo) {
  ++counters_.acks_received;
  // The ack travels the reverse direction of its data flow.
  FlowKey key{packet.dst, packet.src};
  SenderFlow& flow = senders_[key];
  Quarantine* q = quarantined(key.second);
  const sim::TimeNs now = host_->host_now();
  const bool wan = topo_ != nullptr &&
                   topo_->cluster_of(key.first) != topo_->cluster_of(key.second);
  // Sample before the ack retires the echoed frame with its send times.
  if (echo.has_value()) sample_rtt(flow, *echo, now, wan);
  newly_acked_.clear();
  for (auto it = flow.unacked.begin();
       it != flow.unacked.end() && it->first < cumulative;) {
    if (!it->second.sacked) newly_acked_.push_back(it->second.first_tx_order);
    if (q != nullptr) {
      if (q->frames > 0) --q->frames;
      q->bytes -= std::min(q->bytes, it->second.frame.payload.size());
    }
    it = flow.unacked.erase(it);
  }
  for (std::uint64_t bits = sack; bits != 0; bits &= bits - 1) {
    const auto seq = static_cast<std::uint32_t>(
        cumulative + 1 + static_cast<std::uint32_t>(std::countr_zero(bits)));
    auto it = flow.unacked.find(seq);
    if (it == flow.unacked.end() || it->second.sacked) continue;
    it->second.sacked = true;
    newly_acked_.push_back(it->second.first_tx_order);
  }
  if (newly_acked_.empty()) return;
  flow.stall_start = 0;
  // A suspect peer gets nothing resent; resume_peer replays what it lacks.
  if (q != nullptr) return;
  // Fast retransmit: a frame that kDupThreshold later transmissions have
  // overtaken is lost, not late. Credit each still-missing frame with the
  // newly acked frames first sent after its own last transmission.
  std::sort(newly_acked_.begin(), newly_acked_.end());
  for (auto& [seq, pending] : flow.unacked) {
    if (!pending.resendable()) continue;
    pending.acked_after += static_cast<std::uint32_t>(
        newly_acked_.end() - std::upper_bound(newly_acked_.begin(),
                                              newly_acked_.end(),
                                              pending.tx_order));
    if (pending.acked_after < kDupThreshold) continue;
    ++counters_.fast_retransmits;
    resend(flow, pending, now);
  }
  // The resent frames' deadlines only moved later, so the live timer
  // (due no later than the old earliest deadline) still covers them.
}

std::optional<Packet> ReliableDevice::handle_data(Packet&& packet,
                                                  Echo echo) {
  const std::uint32_t seq = echo.seq;
  FlowKey key{packet.src, packet.dst};
  ReceiverFlow& flow = receivers_[key];
  const NodeId data_src = packet.src;
  const NodeId data_dst = packet.dst;
  if (seq < flow.expected || flow.buffered.count(seq) != 0) {
    ++counters_.duplicates_suppressed;
  } else if (seq == flow.expected) {
    // Release the contiguous run through the devices above us; delivery
    // happens inside inject_receive, so this transform consumes the
    // packet uniformly (one code path whether or not a run flushes).
    ++flow.expected;
    ++counters_.delivered;
    host_->inject_receive(this, std::move(packet));
    for (auto it = flow.buffered.find(flow.expected);
         it != flow.buffered.end();
         it = flow.buffered.find(flow.expected)) {
      Packet next = std::move(it->second);
      flow.buffered.erase(it);
      ++flow.expected;
      ++counters_.delivered;
      host_->inject_receive(this, std::move(next));
    }
  } else {
    flow.buffered.emplace(seq, std::move(packet));
    ++counters_.out_of_order_buffered;
  }
  send_ack(data_src, data_dst, flow, echo);
  return std::nullopt;
}

void ReliableDevice::send_ack(NodeId data_src, NodeId data_dst,
                              const ReceiverFlow& flow, Echo echo) {
  Packet ack;
  ack.src = data_dst;  // acks travel receiver -> sender
  ack.dst = data_src;
  ack.inject_time = host_->host_now();
  const std::uint64_t sack = sack_bitmap(flow.buffered, flow.expected);
  ack.payload.resize(kAckBodyBytes);
  std::memcpy(ack.payload.data(), &sack, sizeof(sack));
  std::memcpy(ack.payload.data() + sizeof(sack), &echo.seq, sizeof(echo.seq));
  frame(ack, {flow.expected, kAck, echo.tx});
  ++counters_.acks_sent;
  host_->inject_send(this, std::move(ack));
}

ReliabilityStack install_reliability_stack(
    Chain& chain, const Topology* topo,
    const std::optional<ReliableConfig>& reliable, const FaultConfig& faults,
    sim::TimeNs cross_cluster_delay, const HeartbeatConfig& heartbeat,
    const CoalesceConfig& coalesce, const CompressionConfig& compression,
    const StripingConfig& striping) {
  ReliabilityStack stack;
  if (coalesce.enabled) {
    stack.coalesce =
        chain.add(std::make_unique<CoalesceDevice>(topo, coalesce));
  }
  if (reliable.has_value()) {
    if (compression.enabled) {
      stack.compress = chain.add(
          std::make_unique<CompressionDevice>(compression.cpu_ns_per_byte));
    }
    if (striping.enabled) {
      stack.stripe = chain.add(
          std::make_unique<StripingDevice>(striping.rails, striping.min_bytes));
    }
    stack.reliable =
        chain.add(std::make_unique<ReliableDevice>(*reliable, topo));
    if (heartbeat.enabled) {
      stack.heartbeat =
          chain.add(std::make_unique<HeartbeatDevice>(topo, heartbeat));
      if (stack.coalesce != nullptr) {
        // Bundling must not widen the detection window: every unbundled
        // bundle refreshes its source's liveness, exactly as the n frames
        // it replaced would have.
        HeartbeatDevice* hb = stack.heartbeat;
        stack.coalesce->set_unbundle_listener(
            [hb](NodeId src) { hb->note_alive(src); });
      }
      // Detector verdicts drive the flows: suspicion pauses (quarantine),
      // demotion replays seq-exact, confirmed death drops quietly.
      ReliableDevice* rel = stack.reliable;
      stack.heartbeat->set_state_listener(
          [rel](NodeId node, PeerState from, PeerState to, sim::TimeNs) {
            if (to == PeerState::kSuspect) {
              rel->set_peer_quarantined(node, true);
            } else if (from == PeerState::kSuspect &&
                       to == PeerState::kAlive) {
              rel->set_peer_quarantined(node, false);
            } else if (to == PeerState::kDead) {
              rel->abandon_peer(node);
            }
          });
    }
    stack.checksum =
        chain.add(std::make_unique<ChecksumDevice>(/*drop_on_mismatch=*/true));
    stack.faults = chain.add(std::make_unique<FaultDevice>(faults, topo));
  } else {
    MDO_CHECK_MSG(!faults.any() && !heartbeat.enabled &&
                      !compression.enabled && !striping.enabled,
                  "faults, failure detection, compression and striping "
                  "need the reliable part of the stack");
  }
  if (cross_cluster_delay > 0) {
    stack.delay =
        chain.add(std::make_unique<DelayDevice>(topo, cross_cluster_delay));
  }
  return stack;
}

}  // namespace mdo::net
