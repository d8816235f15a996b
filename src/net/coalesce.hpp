#pragma once
// Coalescing device: aggregates many small packets bound for the same
// remote PE into one bundle frame, the MPICH-G2 / MPWide trick for grid
// message layers — per-frame overhead and the latency model's per-packet
// cost are paid once per bundle instead of once per message. The send
// side buffers small cross-cluster packets per (src, dst) pair and
// flushes on (a) a byte/count threshold, (b) a short timer sized from
// the latency model, or (c) a scheduler-idle notification from the
// runtime (flush_source), so an idle PE never sits on a bundle. The
// receive side unbundles back into the original packets.
//
// Eager-first policy: when a pair has no aggregation window open, the
// first small packet is sent through immediately (a wavefront-leading
// ghost pays zero bundling delay) and opens a window of flush_timeout;
// only followers inside the window are buffered. This keeps the
// critical path untouched while the burst that trails the leader —
// the usual shape of stencil/MD exchange phases — is coalesced.
//
// Chain placement (send order, wire last):
//   coalesce -> [compress/crypto/stripe ...] -> reliable -> ... -> delay
// Above the reliability device, so a bundle is one reliable frame
// (exactly-once, in-order as a unit) and protocol traffic — acks, beats,
// retransmissions — is injected below this device and never buffered.
// Urgent envelopes (priority < 0) and large payloads bypass the buffer;
// a bypass flushes the pair's pending bundle first, so per-pair send
// order is always preserved.

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "net/device.hpp"
#include "net/topology.hpp"

namespace mdo::net {

struct CoalesceConfig {
  bool enabled = false;  ///< gates installation in Scenario machines
  std::size_t max_small_bytes = 4096;    ///< only payloads below this coalesce
  std::size_t max_bundle_bytes = 32768;  ///< size-threshold flush
  std::size_t max_bundle_packets = 64;   ///< count-threshold flush
  /// Backstop timer: a bundle never waits longer than this after its
  /// first packet. Scenario sizes it from the latency model (a fraction
  /// of the one-way WAN latency, floored and clamped below the heartbeat
  /// period so bundling cannot widen the failure-detection window).
  sim::TimeNs flush_timeout = sim::milliseconds(1.0);
  /// When true, the first packet of an aggregation window is sent
  /// through un-bundled (zero added latency on the stream head) and
  /// only its followers buffer. When false, every small packet buffers
  /// and the window's head waits out the timer too — better frame
  /// reduction, worse critical-path delay.
  bool eager_first = true;
};

class CoalesceDevice final : public FilterDevice {
 public:
  /// `topo` classifies pairs: same-cluster packets bypass the buffer.
  /// Pass nullptr to coalesce every non-local pair (tests).
  CoalesceDevice(const Topology* topo, CoalesceConfig config);

  const char* name() const override { return "coalesce"; }

  void send_transform(std::vector<Packet>& packets, SendContext& ctx) override;
  std::optional<Packet> receive_transform(Packet packet) override;

  /// Scheduler-idle notification: flush every pending bundle whose source
  /// is `src`. Callable from host context (a machine's idle callback);
  /// the flush itself hops into fabric context via host_schedule.
  void flush_source(NodeId src);

  // -- live retune hooks (fabric context; the adaptive controller) ----------
  // Already-armed timers keep the timeout they were armed with; the new
  // value applies from the next window on, so a retune can never fire a
  // pending timer early or strand one forever.

  /// Replace the global backstop flush window.
  void retune_flush_timeout(sim::TimeNs timeout);
  /// Override the flush window for one directed cluster pair (consulted
  /// before the global value; requires a topology to map nodes). A
  /// heterogeneous grid wants per-link windows: an eighth of *that*
  /// link's one-way latency, not the worst link's.
  void retune_pair_flush_timeout(ClusterId src, ClusterId dst,
                                 sim::TimeNs timeout);

  /// The flush window a fresh bundle from src -> dst would get right now
  /// (pair override when present, else the global window).
  sim::TimeNs flush_timeout_for(NodeId src, NodeId dst) const;

  /// Liveness hook for the failure detector: fired once per unbundled
  /// bundle with the bundle's source, so a heartbeat device below this
  /// one can credit the coalesced frames as proof of life.
  using UnbundleFn = std::function<void(NodeId src)>;
  void set_unbundle_listener(UnbundleFn fn) { on_unbundle_ = std::move(fn); }

  struct Counters {
    std::uint64_t packets_seen = 0;      ///< send-path packets inspected
    std::uint64_t packets_bundled = 0;   ///< left the device inside a bundle
    std::uint64_t bundles_sent = 0;
    std::uint64_t bundle_bytes = 0;      ///< payload bytes carried in bundles
    std::uint64_t bypass_urgent = 0;     ///< priority < 0 passed through
    std::uint64_t bypass_large = 0;      ///< >= max_small_bytes
    std::uint64_t bypass_local = 0;      ///< same-cluster pair
    std::uint64_t eager_sent = 0;        ///< window heads sent un-bundled
    // Flush-reason histogram.
    std::uint64_t flush_size = 0;   ///< byte or count threshold reached
    std::uint64_t flush_timer = 0;  ///< backstop timeout fired
    std::uint64_t flush_idle = 0;   ///< scheduler-idle notification
    std::uint64_t flush_bypass = 0; ///< urgent/large packet overtook the pair
    std::uint64_t packets_unbundled = 0;  ///< receive side
    std::uint64_t malformed_dropped = 0;

    /// Wire frames avoided: each bundle of n packets replaces n frames.
    std::uint64_t frames_saved() const {
      return packets_bundled - bundles_sent;
    }
    double mean_occupancy() const {
      return bundles_sent == 0 ? 0.0
                               : static_cast<double>(packets_bundled) /
                                     static_cast<double>(bundles_sent);
    }
    bool operator==(const Counters&) const = default;
  };
  const Counters& counters() const { return counters_; }
  const CoalesceConfig& config() const { return config_; }

  /// Packets currently parked in send-side buffers (0 at quiescence).
  std::size_t pending_packets() const;

 private:
  using PairKey = std::pair<NodeId, NodeId>;  ///< (src, dst)

  struct Buffer {
    std::vector<Packet> packets;
    std::size_t bytes = 0;  ///< payload bytes buffered
    bool timer_armed = false;
  };

  bool should_buffer(const Packet& packet);
  /// Drain `buf` into a single bundle packet (caller picked the reason).
  Packet make_bundle(const PairKey& key, Buffer& buf);
  void arm_timer(const PairKey& key);
  void on_timer(const PairKey& key);     ///< fabric context
  void on_idle_flush(NodeId src);        ///< fabric context

  const Topology* topo_;  ///< may be null: coalesce all non-local pairs
  CoalesceConfig config_;
  /// Per-directed-cluster-pair flush-window overrides (retune hook).
  std::map<std::pair<ClusterId, ClusterId>, sim::TimeNs> pair_flush_;
  /// Reused across send_transform calls (swapped with the chain's packet
  /// list) so the framing/bundling path allocates nothing in steady state.
  std::vector<Packet> send_scratch_;
  std::map<PairKey, Buffer> buffers_;
  Counters counters_;
  UnbundleFn on_unbundle_;
  std::uint64_t next_bundle_id_ = (1ull << 48);  ///< distinct from fabric ids
};

}  // namespace mdo::net
