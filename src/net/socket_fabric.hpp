#pragma once
// Wall-clock fabric: the fabric core driven by one network thread, which
// holds every frame until its due time elapses in wall-clock time and
// runs device timers, sleeping in ppoll on a wake pipe and the peer
// sockets. The
// core's lock (a recursive mutex: device injections re-enter the fabric
// from inside chain transforms that already hold it) guards the chain.
// Handlers of frames the loop delivers run outside it; a packet a device
// releases from inside a receive transform (inject_receive) is delivered
// with it held.
//
// It hosts every node (ThreadMachine: a due frame runs straight up the
// receive chain) or one process-local node (ProcessMachine). In the
// second case it talks to its peers over connected stream sockets
// (Unix-domain today; the framing is TCP-ready length-prefixed frames, so
// swapping the transport is a connect() change, not a protocol change):
// a due frame for a peer is serialized into that peer's send ring,
// drained by writev, and inbound bytes are reassembled by an incremental
// FrameDecoder and run up the receive chain. host_local_node() reports
// the hosted node, so node-scoped devices (heartbeat) stop impersonating
// remote peers.
//
// The frame payload is the machine's envelope wire image, untouched: the
// fabric prepends a fixed header and hands ByteWriter the already-packed
// payload bytes, so the PayloadBuf zero-copy path on the send side is
// preserved up to the socket write.

#include <array>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
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

class SocketFabric final : public Fabric {
 public:
  using Clock = std::chrono::steady_clock;

  /// Counters specific to the socket transport, published under
  /// `fabric.socket.*` by ProcessMachine.
  struct SocketStats {
    std::uint64_t link_down_drops = 0;   ///< frames dropped: peer link closed
    std::uint64_t truncated_frames = 0;  ///< partial inbound frame at EOF
    std::uint64_t partial_writes = 0;    ///< short writes resumed later
    std::uint64_t eintr_retries = 0;     ///< syscalls retried after EINTR
    std::uint64_t peer_disconnects = 0;  ///< sockets closed by peer death
  };

  /// Hosts every node of `topo` and has no peer sockets: the fabric of
  /// one address space (ThreadMachine). host_now() counts from here.
  SocketFabric(const Topology* topo, LatencyModel* model, Chain chain);

  /// Hosts `self` alone. `peer_fds[j]` is a connected non-blocking stream
  /// socket to node j, or -1 (self and absent peers). Takes ownership of
  /// every fd. `epoch` anchors host_now(); the forking machine passes one
  /// pre-fork instant so every process in the mesh shares a time base.
  SocketFabric(const Topology* topo, LatencyModel* model, Chain chain,
               NodeId self, std::vector<int> peer_fds,
               Clock::time_point epoch);
  ~SocketFabric() override;

  /// Spawn the network thread. Separate from the constructor so the
  /// owning machine can install handlers and probes first.
  void start();

  /// Stop the network thread, drop undelivered frames and timers, and
  /// close every socket (also done by the destructor). Idempotent.
  void shutdown();

  SocketStats socket_stats() const;

  // -- the clock -----------------------------------------------------------
  sim::TimeNs host_now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override;

 private:
  /// Heap entries, earliest `due` first; `seq` keeps equal deadlines FIFO.
  struct Timed {
    Clock::time_point due;
    std::uint64_t seq;
    Packet packet;
  };
  struct Timer {
    Clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    template <class Entry>
    bool operator()(const Entry& a, const Entry& b) const {
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

  void hold(sim::TimeNs due, Packet&& frame) override;
  void open_wake_pipe();
  /// A frame's deadline elapsed: run it up the chain (hosted node) or
  /// serialize it into the peer's send ring (mutex held; may unlock for
  /// delivery).
  void route_due_frame(Packet&& packet,
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

  Clock::time_point epoch_;
  mutable std::recursive_mutex mutex_;
  std::vector<Peer> peers_;  ///< empty when every node is hosted here
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::priority_queue<Timed, std::vector<Timed>, Later> pending_;
  std::priority_queue<Timer, std::vector<Timer>, Later> timers_;
  std::uint64_t next_seq_ = 0;
  SocketStats socket_stats_;
  std::thread network_;
};

}  // namespace mdo::net
