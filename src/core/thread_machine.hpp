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
#include "core/run_queue.hpp"
#include "core/wall_clock.hpp"
#include "net/latency_model.hpp"
#include "net/socket_fabric.hpp"
#include "obs/mpsc_ring.hpp"

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
  /// its queue is drained (counted in msgs_dropped), and the fabric
  /// squashes frames it would still emit. PE 0 hosts the mainchare and
  /// cannot be killed. Only sound without injected frame loss: an
  /// abandoned retransmission flow would strand quiescence accounting.
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
  using RunItem = RunQueue<Envelope>::Item;

  /// Sharded scheduler: each PE owns a lock-free MPSC inbox ring (any
  /// thread pushes, only this PE's worker pops — in batches) feeding a
  /// consumer-private priority run queue. The mutex+cv pair exists only
  /// for the sleep/wake handshake and the ring-full overflow list; the
  /// steady-state handoff takes no lock. The publish store in the ring
  /// and the `sleeping` flag are both seq_cst, so a producer that reads
  /// sleeping==false and a consumer that reads ring-empty cannot both
  /// happen (store-buffering litmus) — no wake-up is ever lost.
  struct PeWorker {
    std::unique_ptr<obs::MpscRing<RunItem>> inbox;
    std::mutex mutex;              ///< sleep/wake + overflow only
    std::condition_variable cv;
    std::vector<RunItem> overflow;  ///< ring-full fallback (never drops)
    std::atomic<std::size_t> overflow_count{0};
    std::atomic<bool> sleeping{false};

    // Stats as atomics: senders, producers (drops) and the worker
    // (execution) update without taking the worker mutex on the hot path.
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::int64_t> busy_ns{0};
    std::atomic<std::size_t> runq_depth{0};  ///< metrics snapshot

    // Consumer-private state: only the worker thread touches these.
    RunQueue<Envelope> runq;
    std::vector<RunItem> batch;  ///< pop_batch scratch
    std::thread thread;
  };

  void worker_loop(Pe pe);
  /// Move everything from inbox/overflow into the consumer-private runq.
  /// Worker thread only.
  void refill_runq(PeWorker& worker);
  /// Discard the runq of a crashed PE, balancing the pending count.
  void discard_runq(PeWorker& worker);
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
  std::atomic<std::uint64_t> next_seq_{0};
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
