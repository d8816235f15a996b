#pragma once
// Fabric: the terminal transport under a device chain, and the chain's
// DeviceHost. Delivers packets between nodes of a Topology according to
// a LatencyModel.
//
// One core serves every backend. The Fabric owns everything that does
// not depend on how time passes: the chain drive (send, device
// injections, the arrival step), packet ids and byte accounting, the
// dead-source squash, and the due time of every wire frame. A concrete
// fabric is only a clock: it reports `host_now()`, runs `host_schedule`
// callbacks, holds each frame until its due time (`hold`), and names
// the lock its thread takes, if it has one. Two clocks exist:
//  * SimFabric binds the core to a discrete-event engine (virtual time,
//    one thread, no lock);
//  * SocketFabric runs it on one wall-clock network thread. It hosts
//    every node behind one chain under ThreadMachine, and one
//    process-local node with a socket to each peer under ProcessMachine.

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "net/chain.hpp"
#include "net/latency_model.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace mdo::net {

class Fabric : public DeviceHost {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  /// Crash support: `probe(node)` reports whether a node is still alive.
  /// Wire frames whose *source* is a dead node are squashed before
  /// transmission — a crashed process cannot put new bytes on the wire
  /// (its acks and retransmissions die with it). Frames addressed *to* a
  /// dead node still arrive; the machine discards them at enqueue, so the
  /// shared in-process device chain keeps consistent protocol state.
  /// Without a probe every node is up forever.
  using NodeUpProbe = std::function<bool(NodeId)>;

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t wan_packets = 0;   ///< cross-cluster sends
    std::uint64_t wan_bytes = 0;
    std::uint64_t frames_injected = 0;  ///< device-originated wire frames
                                        ///< (acks, retransmissions)
    std::uint64_t dead_node_drops = 0;  ///< frames squashed because their
                                        ///< source node had crashed
    std::uint64_t wire_frames = 0;      ///< frames actually transmitted,
                                        ///< post-chain (a coalesced bundle
                                        ///< counts once)
    std::uint64_t wan_wire_frames = 0;  ///< of those, cross-cluster
  };

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric() override = default;

  /// Hand one packet to the message layer. The fabric assigns the packet
  /// id, runs the send chain, and arranges delivery. Returns the sender
  /// CPU cost the chain reported (charged by the caller's machine).
  sim::TimeNs send(Packet&& packet);

  /// Register the upcall invoked when a packet completes delivery at
  /// `node`, a node this fabric hosts (after the receive chain). Must be
  /// set before traffic flows.
  void set_delivery_handler(NodeId node, DeliverFn handler);

  void set_node_up_probe(NodeUpProbe probe);

  Stats stats() const;

  /// Device chain access; only safe to mutate before traffic flows.
  Chain& chain() { return chain_; }

  // -- DeviceHost (host_now and host_schedule come from the clock) --------
  void inject_send(const FilterDevice* from, Packet&& packet) final;
  void inject_receive(const FilterDevice* from, Packet&& packet) final;
  bool host_node_up(NodeId node) const final;
  std::optional<NodeId> host_local_node() const final { return local_; }
  void host_locked(const std::function<void()>& fn) final;

 protected:
  /// All pointers are borrowed and must outlive the fabric. `local` is
  /// the one node this fabric hosts, or nullopt when it hosts every node.
  /// `lock`, when not null, is held around every entry point: the clock
  /// runs the chain on a thread of its own.
  Fabric(const Topology* topo, LatencyModel* model, Chain chain,
         std::optional<NodeId> local, std::recursive_mutex* lock);

  /// The clock's part of a transmission: keep `frame` until fabric time
  /// `due`, then pass it to arrive() — or, when another fabric hosts its
  /// destination, on toward that fabric. Called with the lock held.
  virtual void hold(sim::TimeNs due, Packet&& frame) = 0;

  /// A frame reached a node this fabric hosts: run it up the receive
  /// chain and hand what survives to the node's handler. `held` is the
  /// clock's lock when it holds one; the handler then runs outside it.
  void arrive(Packet&& frame,
              std::unique_lock<std::recursive_mutex>* held = nullptr);

  bool hosts(NodeId node) const { return !local_ || *local_ == node; }

  /// The clock's lock, taken; an empty guard under a lock-free clock.
  std::unique_lock<std::recursive_mutex> guard() const {
    return lock_ != nullptr ? std::unique_lock<std::recursive_mutex>(*lock_)
                            : std::unique_lock<std::recursive_mutex>();
  }

  /// Set (under the lock) once the clock has shut down: later device
  /// injections are dropped and a send is a usage error.
  bool stopped_ = false;

 private:
  /// Run `packet` down the chain (below `below` when non-null) into the
  /// wire scratch, then transmit the frames.
  void send_through(const FilterDevice* below, Packet&& packet,
                    SendContext& ctx);
  /// The frame loop: squash dead-source frames, count wire frames, and
  /// hold each until now + delay-device hold + per-frame jitter + model
  /// delay, the model evaluated at the instant the frame leaves the
  /// delay device (the VMI chain order of the paper: the delay device
  /// sits above the network device).
  void transmit(const SendContext& ctx);
  void deliver(std::optional<Packet>&& complete,
               std::unique_lock<std::recursive_mutex>* held);
  bool node_up(NodeId node) const { return !node_up_ || node_up_(node); }

  const Topology* topo_;
  LatencyModel* model_;
  Chain chain_;
  std::optional<NodeId> local_;
  std::recursive_mutex* lock_;
  std::vector<DeliverFn> handlers_;
  NodeUpProbe node_up_;
  /// Reused across sends. A chain transform never sends re-entrantly (a
  /// device that must emit from inside one defers through
  /// host_schedule), which `wire_busy_` checks.
  std::vector<Packet> wire_scratch_;
  bool wire_busy_ = false;
  std::uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace mdo::net
