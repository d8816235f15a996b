#pragma once
// Multi-process fabric: each ProcessMachine PE owns one SocketFabric that
// talks to its peers over connected stream sockets (Unix-domain today; the
// framing is TCP-ready length-prefixed frames, so swapping the transport
// is a connect() change, not a protocol change). A single non-blocking
// network thread per process owns every socket: it holds outgoing frames
// until their modeled delivery deadline (delay-device hold + fault jitter
// + latency-model delay) elapses in wall-clock time, then serializes them
// into per-peer send rings drained by writev; inbound bytes are
// reassembled by an incremental FrameDecoder and run up the receive
// chain. Implements DeviceHost exactly like ThreadFabric (wall-clock
// timers, ack/retransmission injection) with one addition: it hosts
// exactly one process-local node, reported via host_local_node(), so
// node-scoped devices (heartbeat) stop impersonating remote peers.
//
// The frame payload is the machine's envelope wire image, untouched: the
// fabric prepends a fixed header and hands ByteWriter the already-packed
// payload bytes, so the PayloadBuf zero-copy path on the send side is
// preserved up to the socket write.

#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "net/latency_model.hpp"
#include "util/buffer.hpp"

namespace mdo::net {

/// Incremental parser for the stream framing. Feed raw socket bytes in
/// arbitrary chunk sizes (partial reads included); next() yields one
/// complete frame at a time. A frame truncated by a peer dying mid-write
/// is *contained*: next() simply keeps returning nullopt and mid_frame()
/// reports the dangling prefix so the fabric can count it when the
/// connection closes. Malformed magic or an absurd length MDO_CHECKs —
/// the mesh is a trusted fork family, so corruption here is a bug, not
/// input.
class FrameDecoder {
 public:
  static constexpr std::uint32_t kMagic = 0x4D444F46u;  // "MDOF"
  /// magic + payload_len + src + dst + priority + id + inject_time.
  static constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 4 + 8 + 8;
  /// Upper bound on a single frame payload; a corrupt length can never
  /// turn into a multi-gigabyte allocation.
  static constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

  /// Serialize the fixed header for `packet` (payload bytes follow on
  /// the wire verbatim). hold_ns is consumed by the sending fabric and
  /// never crosses the wire.
  static std::array<std::byte, kHeaderBytes> encode_header(
      const Packet& packet);

  /// Append raw stream bytes.
  void feed(std::span<const std::byte> data);

  /// Extract the next complete frame, or nullopt if more bytes are
  /// needed.
  std::optional<Packet> next();

  /// Bytes held, including any partial frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

  /// A frame header or payload prefix is pending completion.
  bool mid_frame() const { return buffered() > 0; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
};

class SocketFabric final : public Fabric, public DeviceHost {
 public:
  using Clock = std::chrono::steady_clock;

  /// Counters specific to the socket transport, published under
  /// `fabric.socket.*` by the owning machine.
  struct SocketStats {
    std::uint64_t link_down_drops = 0;   ///< frames dropped: peer link closed
    std::uint64_t truncated_frames = 0;  ///< partial inbound frame at EOF
    std::uint64_t partial_writes = 0;    ///< short writes resumed later
    std::uint64_t eintr_retries = 0;     ///< syscalls retried after EINTR
    std::uint64_t peer_disconnects = 0;  ///< sockets closed by peer death
  };

  /// `peer_fds[j]` is a connected non-blocking stream socket to node j,
  /// or -1 (self and absent peers). Takes ownership of every fd. `epoch`
  /// anchors host_now(); the forking machine passes one pre-fork instant
  /// so every process in the mesh shares a time base.
  SocketFabric(const Topology* topo, LatencyModel* model, Chain chain,
               NodeId self, std::vector<int> peer_fds,
               Clock::time_point epoch);
  ~SocketFabric() override;

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  /// Spawn the network thread. Separate from the constructor so the
  /// owning machine can install handlers and probes first.
  void start();

  /// Stop the network thread, drop undelivered frames and timers, and
  /// close every socket (also done by the destructor). Idempotent.
  void shutdown();

  NodeId self() const { return self_; }

  // -- Fabric --------------------------------------------------------------
  sim::TimeNs send(Packet&& packet) override;
  void set_delivery_handler(NodeId node, DeliverFn handler) override;
  const Topology& topology() const override { return *topo_; }
  void set_node_up_probe(NodeUpProbe probe) override;
  Stats stats() const override;

  SocketStats socket_stats() const;

  /// Device chain access; only safe to mutate before traffic flows.
  Chain& chain() { return chain_; }

  // -- DeviceHost ----------------------------------------------------------
  sim::TimeNs host_now() const override { return now_ns(); }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override;
  void inject_send(const FilterDevice* from, Packet&& packet) override;
  void inject_receive(const FilterDevice* from, Packet&& packet) override;
  bool host_node_up(NodeId node) const override;
  void host_locked(const std::function<void()>& fn) override;
  std::optional<NodeId> host_local_node() const override { return self_; }

 private:
  struct Timed {
    Clock::time_point due;
    std::uint64_t seq;
    Packet packet;
  };
  struct Later {
    bool operator()(const Timed& a, const Timed& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };
  struct Timer {
    Clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  /// One serialized frame waiting in a peer's send ring. The payload is
  /// the packed envelope bytes moved straight from the Packet — no copy
  /// between the chain and the socket.
  struct OutFrame {
    std::array<std::byte, FrameDecoder::kHeaderBytes> header;
    Bytes payload;
  };

  struct Peer {
    int fd = -1;
    bool down = false;
    std::deque<OutFrame> out;
    std::size_t offset = 0;  ///< bytes of out.front() already written
    FrameDecoder decoder;
  };

  sim::TimeNs now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Schedule the wire frames of one transmission (mutex held).
  void enqueue_frames(std::vector<Packet>& wire, const SendContext& ctx);
  void send_through(const FilterDevice* below, Packet&& packet,
                    SendContext& ctx);
  /// A frame's deadline elapsed: loop back (dst == self) or serialize
  /// into the peer's send ring (mutex held; may unlock for delivery).
  void route_due_frame(Packet&& packet,
                       std::unique_lock<std::recursive_mutex>& lock);
  void deliver_complete(Packet&& packet,
                        std::unique_lock<std::recursive_mutex>& lock);
  /// Drain a peer's send ring with non-blocking writev (mutex held).
  void flush_peer(Peer& peer);
  /// Drain readable bytes from a peer and deliver completed frames
  /// (mutex held; unlocks around the delivery handler).
  void read_peer(std::size_t index,
                 std::unique_lock<std::recursive_mutex>& lock);
  void link_down(Peer& peer);
  void wake();
  void network_loop();

  const Topology* topo_;
  LatencyModel* model_;
  Chain chain_;
  NodeId self_;
  Clock::time_point epoch_;

  mutable std::recursive_mutex mutex_;
  std::vector<Peer> peers_;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::priority_queue<Timed, std::vector<Timed>, Later> pending_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::vector<DeliverFn> handlers_;
  std::vector<Packet> wire_scratch_;
  bool wire_busy_ = false;
  NodeUpProbe node_up_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  SocketStats socket_stats_;
  bool stop_ = false;
  std::thread network_;
};

}  // namespace mdo::net
