#pragma once
// Real-time fabric: one dispatcher thread holds packets until their
// modeled delivery deadline (delay-device hold + fault jitter + network
// delay) elapses in wall-clock time, then runs the receive chain and the
// delivery upcall. Used by the ThreadMachine backend for examples and
// integration tests; delivery handlers must be thread-safe.
//
// Implements DeviceHost so protocol devices (the reliability device) can
// run retransmission timers on wall-clock time and inject acks and
// retransmissions. Chain state is guarded by the fabric mutex, which is
// recursive because injections re-enter the fabric from inside chain
// transforms that already hold it.

#include <condition_variable>
#include <chrono>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "net/latency_model.hpp"

namespace mdo::net {

class ThreadFabric final : public Fabric, public DeviceHost {
 public:
  ThreadFabric(const Topology* topo, LatencyModel* model, Chain chain);
  ~ThreadFabric() override;

  ThreadFabric(const ThreadFabric&) = delete;
  ThreadFabric& operator=(const ThreadFabric&) = delete;

  sim::TimeNs send(Packet&& packet) override;
  void set_delivery_handler(NodeId node, DeliverFn handler) override;
  const Topology& topology() const override { return *topo_; }
  void set_node_up_probe(NodeUpProbe probe) override;
  Stats stats() const override;

  /// Stop the dispatcher and drop undelivered packets and timers (also
  /// done by the destructor). Idempotent.
  void shutdown();

  /// Device chain access; only safe to mutate before traffic flows.
  Chain& chain() { return chain_; }

  // -- DeviceHost ----------------------------------------------------------
  sim::TimeNs host_now() const override { return now_ns(); }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override;
  void inject_send(const FilterDevice* from, Packet&& packet) override;
  void inject_receive(const FilterDevice* from, Packet&& packet) override;
  bool host_node_up(NodeId node) const override;
  void host_locked(const std::function<void()>& fn) override;

 private:
  using Clock = std::chrono::steady_clock;

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

  sim::TimeNs now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  /// Schedule the wire frames of one transmission (mutex held).
  void enqueue_frames(std::vector<Packet>& wire, const SendContext& ctx);
  /// Run packet down the chain (below `below` when non-null) and enqueue
  /// the resulting frames, reusing wire_scratch_ when possible.
  void send_through(const FilterDevice* below, Packet&& packet,
                    SendContext& ctx);
  void dispatcher_loop();

  const Topology* topo_;
  LatencyModel* model_;
  Chain chain_;
  Clock::time_point start_;

  mutable std::recursive_mutex mutex_;
  std::condition_variable_any cv_;
  std::priority_queue<Timed, std::vector<Timed>, Later> pending_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::vector<DeliverFn> handlers_;
  /// Reused across sends (mutex held); re-entrant sends from chain
  /// transforms fall back to a local vector.
  std::vector<Packet> wire_scratch_;
  bool wire_busy_ = false;
  NodeUpProbe node_up_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace mdo::net
