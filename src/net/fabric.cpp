#include "net/fabric.hpp"

#include "util/assert.hpp"

namespace mdo::net {

Fabric::Fabric(const Topology* topo, LatencyModel* model, Chain chain,
               std::optional<NodeId> local, std::recursive_mutex* lock)
    : topo_(topo),
      model_(model),
      chain_(std::move(chain)),
      local_(local),
      lock_(lock) {
  MDO_CHECK(topo_ != nullptr && model_ != nullptr);
  MDO_CHECK(!local_ || (*local_ >= 0 && static_cast<std::size_t>(*local_) <
                                            topo_->num_nodes()));
  chain_.set_host(this);
  handlers_.resize(topo_->num_nodes());
}

void Fabric::set_delivery_handler(NodeId node, DeliverFn handler) {
  auto lock = guard();
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < handlers_.size());
  MDO_CHECK_MSG(hosts(node), "delivery handler for a node hosted elsewhere");
  handlers_[static_cast<std::size_t>(node)] = std::move(handler);
}

void Fabric::set_node_up_probe(NodeUpProbe probe) {
  auto lock = guard();
  node_up_ = std::move(probe);
}

Fabric::Stats Fabric::stats() const {
  auto lock = guard();
  return stats_;
}

bool Fabric::host_node_up(NodeId node) const {
  auto lock = guard();
  return node_up(node);
}

void Fabric::host_locked(const std::function<void()>& fn) {
  auto lock = guard();
  fn();
}

sim::TimeNs Fabric::send(Packet&& packet) {
  auto lock = guard();
  MDO_CHECK_MSG(!stopped_, "send on a fabric that has shut down");
  MDO_CHECK(packet.src >= 0 &&
            static_cast<std::size_t>(packet.src) < topo_->num_nodes());
  MDO_CHECK(packet.dst >= 0 &&
            static_cast<std::size_t>(packet.dst) < topo_->num_nodes());
  packet.id = next_id_++;
  packet.inject_time = host_now();

  ++stats_.packets_sent;
  stats_.bytes_sent += packet.payload.size();
  if (!topo_->same_cluster(packet.src, packet.dst)) {
    ++stats_.wan_packets;
    stats_.wan_bytes += packet.payload.size();
  }

  SendContext ctx;
  send_through(nullptr, std::move(packet), ctx);
  return ctx.cpu_cost;
}

void Fabric::inject_send(const FilterDevice* from, Packet&& packet) {
  // Device-originated traffic (acks, retransmissions): wire-level frames,
  // not runtime sends, so packets_sent/bytes_sent stay envelope-shaped.
  // The injecting device's CPU cost is absorbed by the fabric.
  auto lock = guard();
  if (stopped_) return;
  ++stats_.frames_injected;
  SendContext ctx;
  send_through(from, std::move(packet), ctx);
}

void Fabric::send_through(const FilterDevice* below, Packet&& packet,
                          SendContext& ctx) {
  MDO_CHECK_MSG(!wire_busy_, "a chain transform re-entered the fabric");
  wire_busy_ = true;
  if (below == nullptr) {
    chain_.apply_send(std::move(packet), ctx, wire_scratch_);
  } else {
    chain_.apply_send_below(below, std::move(packet), ctx, wire_scratch_);
  }
  transmit(ctx);
  wire_scratch_.clear();
  wire_busy_ = false;
}

void Fabric::transmit(const SendContext& ctx) {
  const sim::TimeNs now = host_now();
  for (Packet& frame : wire_scratch_) {
    // A crashed node cannot put new bytes on the wire: its acks and
    // retransmissions are squashed here, after the chain transforms (so
    // shared device state stays consistent) but before the network.
    if (!node_up(frame.src)) {
      ++stats_.dead_node_drops;
      continue;
    }
    ++stats_.wire_frames;
    if (!topo_->same_cluster(frame.src, frame.dst)) ++stats_.wan_wire_frames;
    const sim::TimeNs enter_net = now + ctx.extra_delay + frame.hold_ns;
    frame.hold_ns = 0;
    const sim::TimeNs due =
        enter_net + model_->delivery_delay(frame.src, frame.dst,
                                           frame.payload.size(), enter_net);
    hold(due, std::move(frame));
  }
}

void Fabric::arrive(Packet&& frame,
                    std::unique_lock<std::recursive_mutex>* held) {
  deliver(chain_.apply_receive(std::move(frame)), held);
}

void Fabric::inject_receive(const FilterDevice* from, Packet&& packet) {
  auto lock = guard();
  if (stopped_) return;
  // Nested inside a receive transform, so the lock (if any) stays held
  // across the handler. Safe: delivery handlers only take their own
  // mailbox locks and never call back into the fabric synchronously.
  deliver(chain_.apply_receive_above(from, std::move(packet)), nullptr);
}

void Fabric::deliver(std::optional<Packet>&& complete,
                     std::unique_lock<std::recursive_mutex>* held) {
  if (!complete.has_value()) return;
  MDO_CHECK(hosts(complete->dst));
  ++stats_.packets_delivered;
  const DeliverFn& handler = handlers_[static_cast<std::size_t>(complete->dst)];
  MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
  if (held == nullptr) {
    handler(std::move(*complete));
    return;
  }
  // Deliver outside the lock (with a copy of the handler, which the lock
  // guards): the handler enqueues into a PE mailbox, which takes its own
  // lock and may race with a concurrent send().
  DeliverFn unlocked = handler;
  held->unlock();
  unlocked(std::move(*complete));
  held->lock();
}

}  // namespace mdo::net
