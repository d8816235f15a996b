#pragma once
// VMI-style message-layer devices. A Chain holds an ordered list of
// FilterDevices; outgoing packets run down the chain (each device may
// rewrite, delay, or split them) before reaching the terminal transport,
// and incoming packets run back up in reverse order. This reproduces
// VMI's send/receive device chains, including the paper's "delay device
// driver" used to inject artificial wide-area latencies (§5.1).

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mdo::net {

/// Per-send accounting accumulated while a packet traverses the chain.
struct SendContext {
  sim::TimeNs extra_delay = 0;  ///< artificial hold time (delay device)
  sim::TimeNs cpu_cost = 0;     ///< sender CPU spent transforming payloads
};

class FilterDevice;

/// Services a fabric offers to the devices of its chain. Protocol devices
/// (the reliability device) need more than pure payload transforms: they
/// originate packets of their own (acks, retransmissions), complete
/// buffered packets later, and pace timers. The fabric that owns the
/// chain implements this interface; time is virtual under a SimFabric
/// and wall-clock under a ThreadFabric, so devices stay backend-agnostic.
class DeviceHost {
 public:
  virtual ~DeviceHost() = default;

  /// Current fabric time (virtual or wall ns).
  virtual sim::TimeNs host_now() const = 0;

  /// Run `fn` after `dt` of fabric time. `fn` runs in fabric context
  /// (DES callback / dispatcher thread) with exclusive chain access.
  virtual void host_schedule(sim::TimeNs dt, std::function<void()> fn) = 0;

  /// Transmit `packet` through the devices strictly below `from` and out
  /// the wire — the path of a retransmission or a protocol ack. Lower
  /// devices (checksum, faults, delay) apply as for a first transmission.
  virtual void inject_send(const FilterDevice* from, Packet&& packet) = 0;

  /// Deliver `packet` up through the devices strictly above `from` and,
  /// if it survives, into the node's delivery handler — the path of a
  /// buffered packet released later (in-order flush).
  virtual void inject_receive(const FilterDevice* from, Packet&& packet) = 0;

  /// Whether `node` is still scheduling (fail-stop crash model). Devices
  /// use this to stop emitting on behalf of dead nodes (heartbeats) and
  /// to quietly abandon their protocol state (retransmission flows whose
  /// sender died). Fabrics without crash support report everything up.
  virtual bool host_node_up(NodeId) const { return true; }

  /// The single node this host acts for, if the fabric spans only one.
  /// Shared-address-space fabrics (SimFabric, ThreadFabric) host every
  /// node behind one chain and return nullopt; a SocketFabric hosts
  /// exactly one process-local node, and devices that act *on behalf of*
  /// nodes (the heartbeat emitter/monitor loops) must restrict themselves
  /// to it instead of impersonating remote peers.
  virtual std::optional<NodeId> host_local_node() const { return std::nullopt; }

  /// Run `fn` with exclusive chain access from outside fabric context,
  /// such as a metrics snapshot taken on another thread. A fabric whose
  /// chain runs on its own thread calls `fn` under its fabric lock; a
  /// single-threaded fabric just calls it. Chain code takes other locks
  /// while it holds the fabric lock, so `fn` must take none.
  virtual void host_locked(const std::function<void()>& fn) { fn(); }
};

class FilterDevice {
 public:
  virtual ~FilterDevice() = default;
  virtual const char* name() const = 0;

  /// Called by the chain when it is attached to a fabric. Devices that
  /// never originate traffic can ignore the host.
  void bind_host(DeviceHost* host) { host_ = host; }

  /// Run `fn` with exclusive access to this device's state, from any
  /// thread (see DeviceHost::host_locked).
  void with_host_lock(const std::function<void()>& fn) const {
    if (host_ != nullptr) {
      host_->host_locked(fn);
    } else {
      fn();
    }
  }

  /// Transform the outgoing packet list in place. Most devices rewrite
  /// each packet; the striping device replaces one packet with fragments.
  virtual void send_transform(std::vector<Packet>& packets, SendContext& ctx);

  /// Inverse transform for one incoming packet. Returning nullopt means
  /// the device consumed the packet (e.g. buffered a fragment); delivery
  /// resumes when a later packet completes the set.
  virtual std::optional<Packet> receive_transform(Packet packet);

 protected:
  /// Per-packet hooks used by the default list implementations.
  virtual void on_send(Packet& packet, SendContext& ctx);
  virtual void on_receive(Packet& packet);

  DeviceHost* host_ = nullptr;  ///< set by Chain::set_host / Chain::add
};

}  // namespace mdo::net
