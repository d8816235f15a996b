#pragma once
// Reliability filter device: exactly-once, in-order delivery over a lossy
// wire. Every (src, dst) ordered node pair is an independent flow with
// its own sequence numbers. The send path frames each outgoing packet
// with a DATA header and keeps a copy until it is acked; the receive
// path suppresses duplicates, buffers out-of-order arrivals, releases
// contiguous runs upward through the chain, and answers every DATA frame
// with an ACK. Losses are repaired by selective repeat: only the frames
// that are actually missing are resent.
//
// Wire format (host byte order; every header byte is written, padding
// as zero):
//
//   DATA  [seq:u32][type=0:u8][tx:u8][pad:2][payload...]
//   ACK   [cum:u32][type=1:u8][echo_tx:u8][pad:2][sack:u64][echo_seq:u32]
//
// `tx` is the frame's transmission number: 0 for the first copy, one
// more for each resend, saturating at 255. Every ACK echoes the
// (echo_seq, echo_tx) of the DATA copy that triggered it. `cum` is the
// cumulative point, the next sequence number the receiver needs; bit i of
// `sack` says the receiver holds frame cum + 1 + i (kSackBits = 64 frames
// past the hole are visible). An ACK with an empty payload is a pure
// cumulative ACK with no echo; any other payload length is malformed and
// dropped without touching flow state.
//
// RTT estimate, per flow (RFC 6298 section 2): the sender takes exactly
// one RTT sample per ACK, from the send time of the copy the echo names,
// and none for a saturated transmission number. The echo removes Karn's
// ambiguity, so a resent frame samples as cleanly as any other. Each flow
// keeps SRTT and RTTVAR in integer nanoseconds (gains 1/8 and 1/4), and a
// frame that is sent, or replayed after quarantine, starts with
// RTO = SRTT + max(1 ms, 4 * RTTVAR), capped at 4 s. The 1 ms floor
// is RFC 9002's timer granularity: on a deterministic link RTTVAR decays
// to about zero, and one larger frame would then overrun the RTO. Before
// its first sample a flow uses rto_initial. An ACK whose echo names an
// earlier copy of a frame that has since been resent proves that resend
// spurious (Eifel detection, RFC 3522): counters().spurious_retransmits.
//
// Sender state is per frame, not per flow:
//
// * Deadlines: a frame is resent on timeout only once it has gone
//   unacked for its own RTO since its own last transmission, and only
//   that frame's RTO doubles (capped at 4 s); one loss never stretches
//   the timeouts of the frames around it. Each flow keeps
//   a single fabric timer, armed at the earliest deadline and re-armed
//   lazily when it fires: host_schedule cannot cancel, so a timer
//   superseded by an earlier re-arm is recognized as stale and ignored.
// * SACK: a frame the receiver reports held is never resent, by timeout
//   or otherwise, and leaves the timer's reckoning.
// * Fast retransmit: a frame is resent at once when kDupThreshold = 3
//   frames transmitted after it have been acked (TCP's duplicate
//   threshold). Link drift and fault jitter reorder frames, so a lower
//   threshold would resend frames that are merely late. A frame that was
//   itself resent counts from its first transmission: a cumulative or
//   selective ack does not say which copy the receiver holds (only the
//   echoed frame's), so the late acks of frames resent on a spurious
//   timeout do not condemn the frames sent between their two copies.
//
// Two escape hatches bound the retransmission loop:
//
// * Give-up is *time-based*: a flow that makes no ack progress (no
//   frame newly acked, cumulatively or selectively) for
//   `give_up_budget` of fabric time is abandoned and the
//   peer-unreachable callback fires. A raw retry count would make the
//   wall-clock give-up scale with the link RTT (64 backed-off timeouts
//   on a 10x-latency WAN link last ~10x longer than on a LAN), so the
//   budget is expressed in time. It is sized from the static link table
//   (Scenario::size_rto), not from the live estimate: 24 live RTOs of a
//   SAN flow last about 24 ms, which an ordinary host stall on a
//   wall-clock backend outlasts.
//
// * Quarantine: while the failure detector merely *suspects* a peer
//   (silent, but possibly just partitioned — see net/heartbeat.hpp), the
//   stack pauses its flows instead of burning give-up budget toward a
//   false unreachable verdict. Retransmission timers idle, and new
//   outbound frames are framed and sequenced but *held* off the wire in
//   the per-flow unacked map — which doubles as the quarantine buffer,
//   bounded per peer by quarantine_max_frames frames or 4 MiB. Hitting
//   the bound trips the congestion callback, which the machines translate into
//   backpressure (senders park envelopes by priority) rather than
//   unbounded memory growth. On demotion back to alive the held frames
//   and the unacked ones the receiver has not SACKed replay in sequence
//   order with fresh deadlines, so delivery stays exactly-once and
//   seq/ack-exact across the heal; on confirmed death the flows are
//   dropped quietly (recovery owns the peer now).
//
// Chain placement (send order, wire last):
//   [compress/crypto/stripe ...] -> reliable -> checksum(drop) -> fault -> delay
// The checksum device sits *below* this device so a corrupted frame is
// dropped before it can be acked, turning integrity failures into
// retransmissions; fault and delay devices sit below both so protocol
// traffic (acks, retransmissions) suffers the same loss and WAN latency
// as first transmissions. install_reliability_stack() builds that order.

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/chain.hpp"
#include "net/coalesce.hpp"
#include "net/device.hpp"
#include "net/devices.hpp"
#include "net/faults.hpp"
#include "net/heartbeat.hpp"
#include "net/striping.hpp"
#include "net/topology.hpp"
#include "util/stats.hpp"

namespace mdo::net {

struct ReliableConfig {
  /// A flow's RTO until its first RTT sample; the estimate takes over
  /// from then on (see the file comment).
  sim::TimeNs rto_initial = sim::milliseconds(20.0);
  /// Continuous no-progress fabric time before a flow is abandoned and
  /// the peer-unreachable callback fires. Time-based on purpose: the
  /// wall-clock meaning is identical on LAN and 10x-latency WAN links.
  /// Scenario::size_rto derives it from the static link table
  /// (24 * rto_initial).
  sim::TimeNs give_up_budget = sim::seconds(120.0);
  /// Per-peer quarantine bound: once this many frames (or 4 MiB) are
  /// held/unacked toward a suspect peer, the congestion callback trips
  /// and the runtime applies backpressure instead of buffering more.
  std::size_t quarantine_max_frames = 1024;
};

class ReliableDevice final : public FilterDevice {
 public:
  /// `topo` (may be null) splits the RTT estimate: cross-cluster acks
  /// additionally feed wan_ack_rtt_ns(), the estimator the adaptive
  /// controller reads — SAN acks arriving in microseconds would
  /// otherwise drag the WAN one-way estimate toward zero.
  explicit ReliableDevice(ReliableConfig config = {},
                          const Topology* topo = nullptr);

  const char* name() const override { return "reliable"; }

  void send_transform(std::vector<Packet>& packets, SendContext& ctx) override;
  std::optional<Packet> receive_transform(Packet packet) override;

  struct Counters {
    std::uint64_t data_sent = 0;       ///< packets framed and sequenced
    std::uint64_t retransmits = 0;     ///< frames re-injected, any cause
    std::uint64_t fast_retransmits = 0;  ///< of which on SACK evidence
    /// ACKs whose echo names an earlier copy of a frame that has since
    /// been resent: the resend was not needed (RFC 3522).
    std::uint64_t spurious_retransmits = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t delivered = 0;       ///< packets released upward in order
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t out_of_order_buffered = 0;
    std::uint64_t malformed_dropped = 0;
    std::uint64_t flows_abandoned = 0;   ///< gave up after give_up_budget
    std::uint64_t frames_held = 0;       ///< framed but kept off the wire
    std::uint64_t quarantines_started = 0;
    std::uint64_t quarantines_resumed = 0;
    std::uint64_t backpressure_events = 0;  ///< quarantine bound hit
    std::uint64_t peers_abandoned = 0;      ///< confirmed-dead cleanups
    /// High-water marks of any single peer's quarantine buffer —
    /// monotone, so they read naturally as counters in the registry.
    std::uint64_t quarantine_peak_frames = 0;
    std::uint64_t quarantine_peak_bytes = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Fired (from fabric context) when a flow exhausts give_up_budget
  /// without any ack progress — the retransmission-based second signal
  /// of the failure detector. `peer` is the unreachable destination,
  /// `self` the sending node whose flow was abandoned. Not fired for
  /// flows whose *sender* has crashed (their timers die quietly), nor
  /// for quarantined peers (suspicion pauses the budget).
  using PeerUnreachableFn = std::function<void(NodeId peer, NodeId self)>;
  void set_on_peer_unreachable(PeerUnreachableFn fn) {
    on_peer_unreachable_ = std::move(fn);
  }

  /// Fired (fabric context) when a peer's quarantine buffer crosses its
  /// bound (`congested = true`) and again when the quarantine ends
  /// (`congested = false`). The machines use it to park / resume
  /// outbound envelopes by priority.
  using CongestionFn = std::function<void(NodeId peer, bool congested)>;
  void set_on_congestion_change(CongestionFn fn) {
    on_congestion_change_ = std::move(fn);
  }

  /// Pause (`on`) or resume (`off`) all flows toward `peer`. Wired to
  /// the heartbeat suspect/alive transitions by
  /// install_reliability_stack; idempotent. Fabric context.
  void set_peer_quarantined(NodeId peer, bool quarantined);
  /// Drop all flow state toward a confirmed-dead peer, quietly (no
  /// unreachable callback — the death verdict already reached recovery).
  void abandon_peer(NodeId peer);

  bool peer_quarantined(NodeId peer) const;
  /// Fabric time of the most recent quarantine resume (0 if none) —
  /// the heal-to-resume clock for the partition sweep.
  sim::TimeNs last_resume_at() const { return last_resume_at_; }

  /// Every RTT sample across all flows: one per ACK, from the send time
  /// of the copy its echo names (the samples the flow estimates take).
  const RunningStats& ack_rtt_ns() const { return ack_rtt_ns_; }
  /// The cross-cluster subset of ack_rtt_ns (empty without a topology).
  const RunningStats& wan_ack_rtt_ns() const { return wan_ack_rtt_ns_; }

  /// RFC 6298 state of one flow, in integer nanoseconds.
  struct RttEstimate {
    sim::TimeNs srtt = 0;
    sim::TimeNs rttvar = 0;
  };
  /// The RTT estimate of flow src -> dst; nullopt before its first sample.
  std::optional<RttEstimate> flow_rtt(NodeId src, NodeId dst) const;

  /// Frames awaiting a cumulative ack across all flows, SACKed ones
  /// included (0 once traffic quiesces).
  std::size_t unacked_frames() const;
  /// Out-of-order packets parked at receivers across all flows.
  std::size_t buffered_packets() const;

  /// Retransmission state of one unacked frame (see flow_frames).
  struct FrameTimer {
    std::uint32_t seq = 0;
    sim::TimeNs rto = 0;       ///< this frame's timeout, backed off per resend
    sim::TimeNs deadline = 0;  ///< last transmission + rto
    bool sacked = false;       ///< held by the receiver: never resent
  };
  /// The unacked frames of flow src -> dst in sequence order: a
  /// diagnostic view of the per-frame deadlines.
  std::vector<FrameTimer> flow_frames(NodeId src, NodeId dst) const;

  const ReliableConfig& config() const { return config_; }

 private:
  using FlowKey = std::pair<NodeId, NodeId>;  ///< (data src, data dst)

  struct Pending {
    Packet frame;               ///< DATA-framed copy, pre-checksum
    sim::TimeNs first_sent = 0;  ///< send time of copy 0
    sim::TimeNs last_sent = 0;  ///< the deadline runs from here
    /// Send time of copy k at [k - 1]; empty for a frame never resent.
    std::vector<sim::TimeNs> resent_at;
    sim::TimeNs rto = 0;        ///< backed off per timeout resend
    std::uint64_t tx_order = 0;  ///< flow transmission count at last_sent
    /// tx_order of the first transmission. A cumulative or selective ack
    /// of a resent frame may be for that first copy, so it is the only
    /// order the ack proves.
    std::uint64_t first_tx_order = 0;
    /// Frames first transmitted after last_sent and acked since: the
    /// fast retransmit fires at kDupThreshold.
    std::uint32_t acked_after = 0;
    std::uint8_t tx = 0;  ///< transmission number of the latest copy
    bool on_wire = true;  ///< false while held in quarantine, pre-transmission
    bool sacked = false;  ///< the receiver holds it; never resent

    sim::TimeNs deadline() const { return last_sent + rto; }
    /// Whether a timeout or fast retransmit may resend it.
    bool resendable() const { return on_wire && !sacked; }
  };
  struct SenderFlow {
    std::uint32_t next_seq = 0;
    std::uint64_t next_tx = 0;  ///< transmissions so far, resends included
    std::map<std::uint32_t, Pending> unacked;
    std::optional<RttEstimate> rtt;  ///< nullopt before the first sample
    /// Fabric time of the first timeout of the current stall (0 = not
    /// stalled); give-up triggers on its age, ack progress clears it.
    sim::TimeNs stall_start = 0;
    /// Fire time of the live timer (0 = none). An expiry at any other
    /// time was superseded by an earlier arm and is stale.
    sim::TimeNs timer_at = 0;
  };
  struct ReceiverFlow {
    std::uint32_t expected = 0;
    std::map<std::uint32_t, Packet> buffered;  ///< deframed, keyed by seq
  };
  struct Quarantine {
    bool active = false;
    bool congested = false;
    std::size_t frames = 0;  ///< unacked + held frames toward the peer
    std::size_t bytes = 0;
  };

  /// The (seq, transmission number) a DATA copy carries and its ACK
  /// echoes.
  struct Echo {
    std::uint32_t seq = 0;
    std::uint8_t tx = 0;
  };

  /// Frame/sequence/store one outbound packet; returns false when the
  /// frame was quarantine-held and must not reach the wire.
  bool prepare_send(Packet& packet);
  /// The RTO a frame of `flow` starts with when it is sent now.
  sim::TimeNs fresh_rto(const SenderFlow& flow) const;
  /// Make sure the flow's timer fires no later than `deadline`.
  void arm_timer(const FlowKey& key, SenderFlow& flow, sim::TimeNs deadline);
  /// Re-arm at the earliest deadline of the flow's resendable frames.
  void rearm_timer(const FlowKey& key, SenderFlow& flow);
  void on_timeout(const FlowKey& key, sim::TimeNs fire_at);
  /// Put one stored frame back on the wire as its latest transmission.
  void transmit(SenderFlow& flow, Pending& pending, sim::TimeNs now);
  /// Put the next copy of a frame the wire already carried on the wire.
  void resend(SenderFlow& flow, Pending& pending, sim::TimeNs now);
  void handle_ack(const Packet& packet, std::uint32_t cumulative,
                  std::uint64_t sack, const std::optional<Echo>& echo);
  /// Take the ACK's one RTT sample, from the copy its echo names.
  void sample_rtt(SenderFlow& flow, const Echo& echo, sim::TimeNs now,
                  bool wan);
  std::optional<Packet> handle_data(Packet&& packet, Echo echo);
  void send_ack(NodeId data_src, NodeId data_dst, const ReceiverFlow& flow,
                Echo echo);
  void clear_flow(const FlowKey& key, SenderFlow& flow);
  void resume_peer(NodeId peer);
  Quarantine* quarantined(NodeId peer);
  void note_quarantine_peaks(const Quarantine& q);
  void maybe_trip_congestion(NodeId peer, Quarantine& q);

  ReliableConfig config_;
  const Topology* topo_;
  std::map<FlowKey, SenderFlow> senders_;
  std::map<FlowKey, ReceiverFlow> receivers_;
  std::map<NodeId, Quarantine> quarantine_;
  Counters counters_;
  RunningStats ack_rtt_ns_;
  RunningStats wan_ack_rtt_ns_;
  /// Reused by handle_ack: first_tx_order of each frame one ack newly
  /// covers (a member, so it is not reallocated per ack).
  std::vector<std::uint64_t> newly_acked_;
  sim::TimeNs last_resume_at_ = 0;
  PeerUnreachableFn on_peer_unreachable_;
  CongestionFn on_congestion_change_;
};

/// The devices of one reliability stack, in chain order; pointers are
/// owned by the chain. `delay` is null when no artificial WAN delay was
/// requested. Counter publication goes through the metric registry —
/// see net/metrics.hpp register_metrics(reg, stack).
struct ReliabilityStack {
  CoalesceDevice* coalesce = nullptr;    ///< null unless config enabled it
  CompressionDevice* compress = nullptr; ///< null unless config enabled it
  StripingDevice* stripe = nullptr;      ///< null unless config enabled it
  ReliableDevice* reliable = nullptr;
  HeartbeatDevice* heartbeat = nullptr;  ///< null unless config enabled it
  ChecksumDevice* checksum = nullptr;
  FaultDevice* faults = nullptr;
  DelayDevice* delay = nullptr;

  bool installed() const { return reliable != nullptr; }
};

/// Append the canonical lossy-WAN stack to `chain`:
///   [coalesce] -> [compress] -> [stripe] -> reliable -> [heartbeat]
///   -> checksum(drop_on_mismatch) -> fault -> [delay]
/// Without `reliable` this is the stack minus its reliable part, a clean
/// fabric: [coalesce] -> [delay]. Faults, heartbeat, compression and
/// striping need the reliable part and must then be off.
/// The delay device is appended only when cross_cluster_delay > 0, below
/// the fault device so retransmissions and acks pay full WAN latency.
/// The heartbeat failure detector is appended only when enabled: below
/// the reliable device (beats are fire-and-forget, never retransmitted)
/// and above checksum/fault/delay (beats are integrity-checked and pay
/// real loss and latency). The coalescing device is appended only when
/// enabled, at the very top: a bundle is one reliable frame, and acks /
/// beats / retransmissions enter the chain below it so the control plane
/// is never buffered. When both coalesce and heartbeat are installed,
/// the unbundle listener credits bundle sources as alive. When the
/// heartbeat is installed its state transitions drive the reliable
/// device: suspect => quarantine, suspect->alive => resume, confirmed
/// dead => abandon. The fault device receives the topology so partition
/// windows can sever directed cluster pairs.
///
/// The optional compression and striping devices sit between coalesce
/// and reliable: they transform whole bundles (best RLE ratio, fewest
/// stripe decisions), and each fragment below them is one reliable frame
/// so a lost rail is retransmitted alone. Both are the adaptive
/// controller's retune targets (net/adaptive.hpp).
ReliabilityStack install_reliability_stack(
    Chain& chain, const Topology* topo,
    const std::optional<ReliableConfig>& reliable, const FaultConfig& faults,
    sim::TimeNs cross_cluster_delay,
    const HeartbeatConfig& heartbeat = {}, const CoalesceConfig& coalesce = {},
    const CompressionConfig& compression = {},
    const StripingConfig& striping = {});

}  // namespace mdo::net
