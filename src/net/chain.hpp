#pragma once
// An ordered device chain, applied forward on send and in reverse on
// receive — the composition mechanism VMI exposes to build capabilities
// (artificial delay, striping, compression, integrity, encryption) out
// of stackable modules without touching the application or the runtime.

#include <memory>
#include <optional>
#include <vector>

#include "net/device.hpp"

namespace mdo::net {

class Chain {
 public:
  Chain() = default;
  Chain(Chain&&) = default;
  Chain& operator=(Chain&&) = default;

  /// Append a device to the send path (it becomes the first on receive).
  /// Returns the raw pointer for post-construction configuration; the
  /// chain owns the device.
  template <class D>
  D* add(std::unique_ptr<D> device) {
    D* raw = device.get();
    if (host_ != nullptr) raw->bind_host(host_);
    devices_.push_back(std::move(device));
    return raw;
  }

  /// Attach the owning fabric's DeviceHost; binds every current and
  /// future device so protocol devices can schedule timers and inject
  /// packets. Called by the fabric that takes ownership of the chain.
  void set_host(DeviceHost* host);

  /// Run `packet` down the send path. The result may be several packets
  /// (striping) with transformed payloads; `ctx` accumulates artificial
  /// delay and sender CPU cost.
  std::vector<Packet> apply_send(Packet&& packet, SendContext& ctx);

  /// As above, but building into a caller-provided vector (cleared first)
  /// so fabrics can reuse one wire vector across sends instead of
  /// allocating a fresh one per message.
  void apply_send(Packet&& packet, SendContext& ctx, std::vector<Packet>& out);

  /// Run one arriving packet up the receive path. nullopt means the
  /// packet was consumed (a buffered fragment).
  std::optional<Packet> apply_receive(Packet&& packet);

  /// Run `packet` down the send path starting just below `from` — the
  /// entry point for device-originated traffic (acks, retransmissions),
  /// which must still traverse checksum/fault/delay devices nearer the
  /// wire but not the devices above the originator. Builds into `out`
  /// (cleared first), like the reusing apply_send.
  void apply_send_below(const FilterDevice* from, Packet&& packet,
                        SendContext& ctx, std::vector<Packet>& out);

  /// Run `packet` up the receive path starting just above `from` — the
  /// exit path for packets a device buffered and releases later.
  std::optional<Packet> apply_receive_above(const FilterDevice* from,
                                            Packet&& packet);

  std::size_t size() const { return devices_.size(); }
  bool empty() const { return devices_.empty(); }

 private:
  std::size_t index_of(const FilterDevice* device) const;

  std::vector<std::unique_ptr<FilterDevice>> devices_;
  DeviceHost* host_ = nullptr;
};

}  // namespace mdo::net
