#pragma once
// ThreadMachine: one OS thread per PE, real wall-clock time, and a
// SocketFabric hosting every node, whose network thread holds cross-node
// packets for their modeled delay.
// Used by the examples and integration tests; the benchmark sweeps use
// SimMachine (deterministic virtual time) instead.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/machine.hpp"
#include "core/wall_clock.hpp"
#include "net/latency_model.hpp"
#include "net/socket_fabric.hpp"

namespace mdo::core {

class ThreadMachine final : public Machine {
 public:
  /// Tuning is the shared core::MachineOptions (emulate_charge honors
  /// Runtime::charge(ns) by sleeping so modeled workloads exhibit real
  /// elapsed time; the process watchdog field is ignored here).
  ThreadMachine(net::Topology topo, net::GridLatencyModel::Config link)
      : ThreadMachine(std::move(topo), link, MachineOptions{}) {}
  ThreadMachine(net::Topology topo, net::GridLatencyModel::Config link,
                MachineOptions options);
  ~ThreadMachine() override;

  /// Crash-inject: PE `pe` stops scheduling work. Cooperative fail-stop —
  /// a handler already running finishes, but nothing it sends escapes,
  /// whatever its mailbox still holds is popped and dropped (counted in
  /// msgs_dropped), and the fabric squashes frames it would still emit.
  /// PE 0 hosts the mainchare and cannot be killed. Only sound without
  /// injected frame loss: an abandoned retransmission flow would strand
  /// quiescence accounting.
  void kill_pe(Pe pe) override;

  net::SocketFabric& fabric() { return *fabric_; }

  // -- Machine interface --------------------------------------------------
  Pe current_pe() const override;
  sim::TimeNs now() const override { return wall_since(start_); }
  void send(Envelope&& env) override;
  void run() override;
  void stop() override;
  PeStats pe_stats(Pe pe) const override;
  /// Runs on the fabric's network thread, serialized with device work.
  void call_after(sim::TimeNs dt, std::function<void()> fn) override {
    fabric_->host_schedule(dt, std::move(fn));
  }

  /// Entry-interval tracing into lock-free per-PE ring buffers: each
  /// worker thread is the sole producer of its own ring, so recording
  /// never takes a lock on the delivery path. Call before traffic flows.
  /// When a ring fills, events are dropped and counted (trace.dropped).
  void set_tracing(bool on) override {
    trace_.set_enabled(on, workers_.size(), fabric_->stats().packets_sent > 0);
  }
  /// Drains the rings (chronologically merged by begin time). Complete
  /// only once traffic has quiesced — run() returned or stop() joined.
  std::vector<TraceEvent> trace() const override { return trace_.collect(); }
  void trace_phase(std::int32_t phase) override;

 protected:
  SchedulerSample scheduler_sample() const override;
  net::Chain& device_chain() override { return fabric_->chain(); }
  const net::Fabric* local_fabric() const override { return fabric_.get(); }

 private:
  /// One PE: its mailbox (any thread pushes, only `thread` pops), its
  /// stats and its worker thread.
  struct PeWorker {
    Mailbox<Envelope> mailbox;
    // Stats as atomics: senders, producers (drops) and the worker
    // (execution) update them without a lock.
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::int64_t> busy_ns{0};
    std::thread thread;
  };

  void worker_loop(Pe pe);
  void enqueue(Pe pe, Envelope&& env);
  /// Route one envelope: local enqueue, fabric, or (toward a congested
  /// peer) the parking lot. Parked envelopes stay in the pending count,
  /// so quiescence waits for the heal.
  void route(Envelope&& env);
  /// A message left the pending count: executed, or dropped at a
  /// crashed PE. The last one out wakes run().
  void retire_pending();

  MachineOptions options_;
  net::GridLatencyModel model_;
  std::unique_ptr<net::SocketFabric> fabric_;

  std::vector<std::unique_ptr<PeWorker>> workers_;
  std::atomic<bool> stopping_{false};

  /// One ring per PE (producer: that PE's worker thread) plus a final
  /// ring for the host thread's phase markers (producer: the main
  /// thread, which never races a worker).
  TraceRecorder trace_;

  // Quiescence: messages anywhere in the system (queued, in flight, or
  // executing). send() increments; the worker decrements after the
  // handler returns, so 0 means nothing can create new work.
  std::atomic<std::int64_t> pending_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  WallTime start_;
};

}  // namespace mdo::core
