#include "net/chain.hpp"

#include "util/assert.hpp"

namespace mdo::net {

void Chain::set_host(DeviceHost* host) {
  host_ = host;
  for (auto& device : devices_) device->bind_host(host);
}

std::size_t Chain::index_of(const FilterDevice* device) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].get() == device) return i;
  }
  MDO_CHECK_MSG(false, "injecting device is not part of this chain");
  return devices_.size();
}

std::vector<Packet> Chain::apply_send(Packet&& packet, SendContext& ctx) {
  std::vector<Packet> packets;
  apply_send(std::move(packet), ctx, packets);
  return packets;
}

void Chain::apply_send(Packet&& packet, SendContext& ctx,
                       std::vector<Packet>& out) {
  out.clear();
  out.push_back(std::move(packet));
  for (auto& device : devices_) {
    device->send_transform(out, ctx);
  }
}

std::optional<Packet> Chain::apply_receive(Packet&& packet) {
  std::optional<Packet> current{std::move(packet)};
  for (auto it = devices_.rbegin(); it != devices_.rend(); ++it) {
    current = (*it)->receive_transform(std::move(*current));
    if (!current.has_value()) return std::nullopt;
  }
  return current;
}

void Chain::apply_send_below(const FilterDevice* from, Packet&& packet,
                             SendContext& ctx, std::vector<Packet>& out) {
  out.clear();
  out.push_back(std::move(packet));
  for (std::size_t i = index_of(from) + 1; i < devices_.size(); ++i) {
    devices_[i]->send_transform(out, ctx);
  }
}

std::optional<Packet> Chain::apply_receive_above(const FilterDevice* from,
                                                 Packet&& packet) {
  std::optional<Packet> current{std::move(packet)};
  for (std::size_t i = index_of(from); i-- > 0;) {
    current = devices_[i]->receive_transform(std::move(*current));
    if (!current.has_value()) return std::nullopt;
  }
  return current;
}

}  // namespace mdo::net
