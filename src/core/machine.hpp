#pragma once
// Machine: the execution substrate beneath the Runtime. It owns the PEs'
// message queues and the notion of time, routes envelopes between PEs
// (through a net::Fabric when they cross nodes), and calls back into
// Runtime::deliver() to execute each message. Three backends sit on one
// core: SimMachine (virtual time, deterministic DES), ThreadMachine (one
// OS thread per PE, wall clock) and ProcessMachine (one forked process
// per PE over Unix-domain sockets). The core composes the device chain
// (install_chain), holds envelopes behind quarantine backpressure
// (ParkingLot), orders every PE's work (RunQueue) and publishes the
// scheduler metrics; a backend supplies its clock, its execution loop
// and its transport.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/envelope.hpp"
#include "core/parking_lot.hpp"
#include "core/types.hpp"
#include "net/adaptive.hpp"
#include "net/fabric.hpp"
#include "net/reliable.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace mdo::core {

class Runtime;

/// Backend-independent machine tuning, shared by every real-time backend
/// (ThreadMachine and ProcessMachine; SimMachine charges virtual time and
/// ignores it). Scenario carries one of these and grid::make_machine
/// forwards it.
struct MachineOptions {
  /// Sleep for each entry's charged CPU time so wall-clock traces carry
  /// the modeled compute cost. Off for pure functional tests.
  bool emulate_charge = true;

  /// ProcessMachine only: abort a run() that makes no progress for this
  /// much wall-clock time (a hung child or wedged socket must never hang
  /// the harness). 0 disables the watchdog.
  sim::TimeNs process_run_watchdog = 120'000'000'000;  // 120 s
};

struct PeStats {
  sim::TimeNs busy_ns = 0;          ///< time spent executing entries
  std::uint64_t msgs_executed = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;   ///< discarded at a crashed PE (counted
                                    ///< so sent == executed + dropped holds
                                    ///< for quiescence accounting)
};

/// One executed-entry interval, recorded when tracing is enabled.
/// Feeds the Figure-2 timeline reproduction.
struct TraceEvent {
  Pe pe = kInvalidPe;
  sim::TimeNs begin = 0;
  sim::TimeNs end = 0;
  Pe src_pe = kInvalidPe;     ///< sender of the triggering message
  EntryId entry = kInvalidEntry;
  MsgKind kind = MsgKind::kEntry;
};

/// Zero-duration kPhaseMarker event tagged with `phase` (Machine::trace_phase).
inline TraceEvent phase_marker(Pe pe, sim::TimeNs t, std::int32_t phase) {
  return TraceEvent{pe, t, t, pe, static_cast<EntryId>(phase),
                    MsgKind::kPhaseMarker};
}

/// Trace recorder state, published under trace.*.
struct TraceStats {
  std::uint64_t events = 0;   ///< recorded and not yet lost
  std::uint64_t dropped = 0;  ///< lost to a full ring
  bool enabled = false;
};

class Machine {
 public:
  explicit Machine(net::Topology topo);
  virtual ~Machine() = default;

  /// Called once by the Runtime constructor to register the upcall target.
  void bind(Runtime* runtime) { rt_ = runtime; }

  int num_pes() const { return static_cast<int>(topo_.num_nodes()); }
  const net::Topology& topology() const { return topo_; }

  /// PE whose entry method is currently executing; PE 0 outside execution
  /// (host/setup code acts as the mainchare on PE 0).
  virtual Pe current_pe() const = 0;

  /// Virtual (SimMachine) or wall (Thread/ProcessMachine) nanoseconds.
  virtual sim::TimeNs now() const = 0;

  /// Route one envelope toward env.dst_pe. Never blocks.
  virtual void send(Envelope&& env) = 0;

  /// Process messages until quiescence (no message anywhere, all PEs
  /// idle) or until stop() is called from inside a handler.
  virtual void run() = 0;

  virtual void stop() = 0;

  virtual PeStats pe_stats(Pe pe) const = 0;

  /// Crash model (fail-stop): which PEs still schedule work. PE 0 hosts
  /// the mainchare and is immortal.
  bool pe_alive(Pe pe) const {
    MDO_CHECK(pe >= 0 && pe < num_pes());
    return !dead_[static_cast<std::size_t>(pe)].load(std::memory_order_acquire);
  }
  std::vector<bool> alive_pes() const;

  /// Advance the clock without work (SimMachine only; models host-driven
  /// phases such as load-balancing time). Default: no-op.
  virtual void advance_time(sim::TimeNs) {}

  /// Run `fn` after `dt` of machine time on the machine's own loop,
  /// outside any PE context: a DES event (Sim), the fabric's network
  /// thread (Thread), or the posting process's network thread (Process;
  /// calls before the fork are replayed in every process). Used by the
  /// quiescence detector to pace its waves, by scenario link drifts, and
  /// to flush parked envelopes when congestion clears.
  virtual void call_after(sim::TimeNs dt, std::function<void()> fn) = 0;

  /// Entry-interval tracing. SimMachine appends to a plain vector; the
  /// wall-clock backends record into lock-free per-PE rings. Enable
  /// before traffic flows.
  virtual void set_tracing(bool on) = 0;
  virtual std::vector<TraceEvent> trace() const = 0;

  /// Application phase marker: records a zero-duration kPhaseMarker trace
  /// event tagged with `phase` (entry field) on the calling PE, so trace
  /// consumers can segment a timeline into steps. No-op when tracing is
  /// off; never touches the wire.
  virtual void trace_phase(std::int32_t phase) = 0;

  /// Scheduler-idle notification: `fn(pe)` fires whenever a PE finishes
  /// an entry and finds its queue empty — the signal a coalescing device
  /// uses to flush pending bundles rather than sit on them while the
  /// destination starves. Call before traffic flows.
  void set_on_pe_idle(std::function<void(Pe)> fn) {
    on_pe_idle_ = std::move(fn);
  }

  /// Crash injection: stop `pe` scheduling (fail-stop). SimMachine kills
  /// in virtual time, ThreadMachine aborts the worker, ProcessMachine
  /// SIGKILLs the child process.
  virtual void kill_pe(Pe pe) = 0;
  std::uint64_t pes_killed() const {
    return kills_.load(std::memory_order_acquire);
  }

  /// Compose the message-layer device chain — the one place any
  /// backend's chain is built. With `reliable` set this is the full
  /// reliability stack (net::install_reliability_stack order); without
  /// it, the stack minus its reliable part: [coalesce] -> [delay], a
  /// clean fabric. A delay device joins when cross_cluster_one_way > 0,
  /// and the adaptive controller (which needs the reliable part's RTT
  /// estimate) when `adaptive.enabled`. Device metrics register, and
  /// congestion reported by the reliable device parks outbound
  /// envelopes until it clears. Call once, before traffic flows.
  const net::ReliabilityStack& install_chain(
      const std::optional<net::ReliableConfig>& reliable,
      const net::FaultConfig& faults, sim::TimeNs cross_cluster_one_way,
      const net::HeartbeatConfig& heartbeat,
      const net::CoalesceConfig& coalesce,
      const net::CompressionConfig& compression,
      const net::StripingConfig& striping,
      const net::AdaptiveConfig& adaptive);

  /// The installed chain's devices; null members were not installed.
  const net::ReliabilityStack& reliability() const { return stack_; }
  net::CoalesceDevice* coalesce() const { return stack_.coalesce; }
  net::AdaptiveController* adaptive() const { return adaptive_; }

  /// Envelopes currently parked by quarantine backpressure.
  std::size_t parked_envelopes() const { return parking_.counts().held; }

  /// Whether every PE shares one address space (Sim/Thread). Pointer
  /// passing, in-place migration, and restore_array assume it; the
  /// Runtime guards those paths with this.
  virtual bool shared_address_space() const { return true; }

  // -- multi-process coordination hooks ------------------------------------
  // No-ops on shared-address-space machines; ProcessMachine overrides
  // them to mirror control-plane decisions into its child processes.

  /// Pull remote PEs' element state into this process before a
  /// checkpoint walks the arrays (the checkpointer reads elements
  /// in-place, which is only current for local ones).
  virtual void sync_remote_elements() {}

  /// An element moved (recovery placement): replicate the move into
  /// every process so location maps stay consistent.
  virtual void on_element_replaced(ArrayId, const Index&, Pe,
                                   std::span<const std::byte>) {}

  /// The collective tree was rebuilt over `alive`: replicate.
  virtual void on_tree_rebuilt(const std::vector<bool>&) {}

  /// The failure detector was armed for `horizon`: arm it in every
  /// process (each process beats only for itself, so an unarmed child
  /// is indistinguishable from a dead one).
  virtual void watch_detector(sim::TimeNs) {}

  /// The run's metric registry. Subsystems register sources at install
  /// time (net devices, fabric, scheduler, tracing); consumers snapshot
  /// before/after a phase and diff.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

 protected:
  /// Scheduler state summed over the PEs this process executes.
  struct SchedulerSample {
    PeStats pes;
    std::uint64_t queue_depth = 0;      ///< envelopes awaiting execution
    std::uint64_t handoffs = 0;         ///< envelopes landed on a PE queue
    std::uint64_t handoff_batches = 0;  ///< wake events / mailbox pops
    std::size_t shards = 0;             ///< PE queues this process runs
    TraceStats trace;
  };

  /// Publish rt.sched.*, rt.sched.shard.*, mem.* and trace.* into `reg`
  /// from scheduler_sample() and the parking lot.
  void register_core_metrics(obs::MetricRegistry& reg);

  /// Fail-stop bookkeeping for kill_pe: marks `pe` dead and counts the
  /// kill; false if it was already dead. PE 0 is immortal.
  bool mark_killed(Pe pe);

  /// The one wire image of an envelope, for every backend: a packet from
  /// `src` to env.dst_pe carrying the packed envelope, in bytes drawn
  /// from this thread's scratch arena.
  static net::Packet pack_delivery(Pe src, const Envelope& env);

  /// The envelope a delivered packet carries. The packed bytes go back to
  /// this thread's scratch arena, so the delivery cycle stays
  /// allocation-free in steady state.
  static Envelope unpack_delivery(net::Packet& packet);

  // -- backend hooks -------------------------------------------------------
  virtual SchedulerSample scheduler_sample() const = 0;
  /// The chain install_chain() composes into (ProcessMachine: the
  /// pre-fork chain every child inherits; it refuses once forked).
  virtual net::Chain& device_chain() = 0;
  /// This process's fabric, or null before it exists (ProcessMachine
  /// builds one per process at the fork and attaches the adaptive
  /// controller to it there).
  virtual const net::Fabric* local_fabric() const = 0;
  /// The registry device metrics join (ProcessMachine: its per-process
  /// registry under the cross-process aggregator).
  virtual obs::MetricRegistry& device_metrics() { return metrics_; }

  net::Topology topo_;
  Runtime* rt_ = nullptr;
  std::function<void(Pe)> on_pe_idle_;
  ParkingLot parking_;
  obs::MetricRegistry metrics_;
  /// Fail-stop flags: set once per killed PE, never cleared.
  std::vector<std::atomic<bool>> dead_;
  std::atomic<std::uint64_t> kills_{0};

 private:
  net::ReliabilityStack stack_;
  net::AdaptiveController* adaptive_ = nullptr;
};

}  // namespace mdo::core
