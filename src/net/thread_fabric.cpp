#include "net/thread_fabric.hpp"

#include "util/assert.hpp"

namespace mdo::net {

ThreadFabric::ThreadFabric(const Topology* topo, LatencyModel* model,
                           Chain chain)
    : topo_(topo),
      model_(model),
      chain_(std::move(chain)),
      start_(Clock::now()) {
  MDO_CHECK(topo_ != nullptr && model_ != nullptr);
  chain_.set_host(this);
  handlers_.resize(topo_->num_nodes());
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ThreadFabric::~ThreadFabric() { shutdown(); }

void ThreadFabric::shutdown() {
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void ThreadFabric::set_delivery_handler(NodeId node, DeliverFn handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < handlers_.size());
  handlers_[static_cast<std::size_t>(node)] = std::move(handler);
}

void ThreadFabric::set_node_up_probe(NodeUpProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  node_up_ = std::move(probe);
}

bool ThreadFabric::host_node_up(NodeId node) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return !node_up_ || node_up_(node);
}

void ThreadFabric::host_locked(const std::function<void()>& fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  fn();
}

void ThreadFabric::enqueue_frames(std::vector<Packet>& wire,
                                  const SendContext& ctx) {
  const sim::TimeNs now = now_ns();
  for (auto& frame : wire) {
    // Fail-stop crash model: a dead node's frames (acks, retransmissions)
    // never reach the wire. See Fabric::set_node_up_probe.
    if (node_up_ && !node_up_(frame.src)) {
      ++stats_.dead_node_drops;
      continue;
    }
    ++stats_.wire_frames;
    if (!topo_->same_cluster(frame.src, frame.dst)) ++stats_.wan_wire_frames;
    sim::TimeNs enter_net = now + ctx.extra_delay + frame.hold_ns;
    frame.hold_ns = 0;
    sim::TimeNs net_delay = model_->delivery_delay(
        frame.src, frame.dst, frame.payload.size(), enter_net);
    Clock::time_point due =
        start_ + std::chrono::nanoseconds(enter_net + net_delay);
    pending_.push(Timed{due, next_seq_++, std::move(frame)});
  }
}

sim::TimeNs ThreadFabric::send(Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(!stop_);
  packet.id = next_id_++;
  packet.inject_time = now_ns();

  ++stats_.packets_sent;
  stats_.bytes_sent += packet.payload.size();
  if (!topo_->same_cluster(packet.src, packet.dst)) {
    ++stats_.wan_packets;
    stats_.wan_bytes += packet.payload.size();
  }

  SendContext ctx;
  send_through(nullptr, std::move(packet), ctx);
  cv_.notify_one();
  return ctx.cpu_cost;
}

void ThreadFabric::inject_send(const FilterDevice* from, Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  ++stats_.frames_injected;
  SendContext ctx;
  send_through(from, std::move(packet), ctx);
  cv_.notify_one();
}

void ThreadFabric::send_through(const FilterDevice* below, Packet&& packet,
                                SendContext& ctx) {
  if (wire_busy_) {
    // Re-entrant send from inside a chain transform (the mutex is
    // recursive): rare protocol path, take the allocating route.
    std::vector<Packet> wire =
        below == nullptr
            ? chain_.apply_send(std::move(packet), ctx)
            : chain_.apply_send_below(below, std::move(packet), ctx);
    enqueue_frames(wire, ctx);
    return;
  }
  wire_busy_ = true;
  if (below == nullptr) {
    chain_.apply_send(std::move(packet), ctx, wire_scratch_);
  } else {
    chain_.apply_send_below(below, std::move(packet), ctx, wire_scratch_);
  }
  enqueue_frames(wire_scratch_, ctx);
  wire_scratch_.clear();
  wire_busy_ = false;
}

void ThreadFabric::inject_receive(const FilterDevice* from, Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  std::optional<Packet> complete =
      chain_.apply_receive_above(from, std::move(packet));
  if (!complete.has_value()) return;
  ++stats_.packets_delivered;
  DeliverFn handler = handlers_[static_cast<std::size_t>(complete->dst)];
  MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
  // Called with the fabric mutex held (we are nested inside a chain
  // transform). Safe: delivery handlers only take their own mailbox
  // locks and never call back into the fabric synchronously.
  handler(std::move(*complete));
}

void ThreadFabric::host_schedule(sim::TimeNs dt, std::function<void()> fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  Clock::time_point due = Clock::now() + std::chrono::nanoseconds(dt);
  timers_.push(Timer{due, next_seq_++, std::move(fn)});
  cv_.notify_one();
}

void ThreadFabric::dispatcher_loop() {
  std::unique_lock<std::recursive_mutex> lock(mutex_);
  while (true) {
    if (stop_) return;
    if (pending_.empty() && timers_.empty()) {
      cv_.wait(lock, [this] {
        return stop_ || !pending_.empty() || !timers_.empty();
      });
      continue;
    }
    const bool timer_first =
        !timers_.empty() &&
        (pending_.empty() || timers_.top().due <= pending_.top().due);
    Clock::time_point due =
        timer_first ? timers_.top().due : pending_.top().due;
    if (Clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    if (timer_first) {
      auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
      timers_.pop();
      // Timer callbacks (retransmission timeouts) mutate chain state and
      // may inject frames; run them with the mutex held.
      fn();
      continue;
    }
    Timed item = std::move(const_cast<Timed&>(pending_.top()));
    pending_.pop();

    std::optional<Packet> complete =
        chain_.apply_receive(std::move(item.packet));
    if (!complete.has_value()) continue;
    ++stats_.packets_delivered;
    DeliverFn handler = handlers_[static_cast<std::size_t>(complete->dst)];
    MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
    // Deliver outside the lock: the handler enqueues into a PE mailbox
    // which takes its own lock, and may race with concurrent send().
    lock.unlock();
    handler(std::move(*complete));
    lock.lock();
  }
}

ThreadFabric::Stats ThreadFabric::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return stats_;
}

}  // namespace mdo::net
