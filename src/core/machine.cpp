#include "core/machine.hpp"

#include "net/metrics.hpp"
#include "util/alloc_count.hpp"
#include "util/assert.hpp"
#include "util/buffer.hpp"

namespace mdo::core {

Machine::Machine(net::Topology topo)
    : topo_(std::move(topo)),
      parking_(topo_.num_nodes()),
      dead_(topo_.num_nodes()) {}

bool Machine::mark_killed(Pe pe) {
  MDO_CHECK_MSG(pe > 0, "PE 0 hosts the mainchare and cannot be killed");
  MDO_CHECK(pe < num_pes());
  if (dead_[static_cast<std::size_t>(pe)].exchange(
          true, std::memory_order_acq_rel)) {
    return false;
  }
  kills_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

std::vector<bool> Machine::alive_pes() const {
  std::vector<bool> alive(static_cast<std::size_t>(num_pes()));
  for (Pe pe = 0; pe < num_pes(); ++pe) {
    alive[static_cast<std::size_t>(pe)] = pe_alive(pe);
  }
  return alive;
}

const net::ReliabilityStack& Machine::install_chain(
    const std::optional<net::ReliableConfig>& reliable,
    const net::FaultConfig& faults, sim::TimeNs cross_cluster_one_way,
    const net::HeartbeatConfig& heartbeat, const net::CoalesceConfig& coalesce,
    const net::CompressionConfig& compression,
    const net::StripingConfig& striping, const net::AdaptiveConfig& adaptive) {
  const net::Fabric* fabric = local_fabric();
  MDO_CHECK_MSG(fabric == nullptr || fabric->stats().packets_sent == 0,
                "devices must be installed before traffic flows");
  net::Chain& chain = device_chain();
  MDO_CHECK_MSG(chain.empty(), "the device chain is already installed");
  MDO_CHECK_MSG(!adaptive.enabled || reliable.has_value(),
                "adaptive controller needs a reliability stack (RTT source)");
  stack_ = net::install_reliability_stack(
      chain, &topo_, reliable, faults, cross_cluster_one_way, heartbeat,
      coalesce, compression, striping);
  obs::MetricRegistry& reg = device_metrics();
  net::register_metrics(reg, stack_);
  if (stack_.reliable != nullptr) {
    // Quarantine backpressure. The flag is stored before the flush is
    // posted: a sender that parks after reading `congested` flushes
    // itself once it sees the flag clear (ParkingLot::park), so nothing
    // strands behind a quarantine that already lifted. The flush runs on
    // the machine's own loop, never inside the heartbeat transition that
    // cleared the congestion.
    stack_.reliable->set_on_congestion_change(
        [this](net::NodeId peer, bool congested) {
          parking_.set_congested(static_cast<Pe>(peer), congested);
          if (!congested) {
            call_after(0, [this, peer] {
              parking_.flush(static_cast<Pe>(peer));
            });
          }
        });
  }
  if (adaptive.enabled) {
    adaptive_ = chain.add(
        std::make_unique<net::AdaptiveController>(&topo_, adaptive));
    if (fabric != nullptr) adaptive_->attach(stack_, *fabric);
    net::register_metrics(reg, *adaptive_);
  }
  return stack_;
}

net::Packet Machine::pack_delivery(Pe src, const Envelope& env) {
  net::Packet packet;
  packet.src = static_cast<net::NodeId>(src);
  packet.dst = static_cast<net::NodeId>(env.dst_pe);
  packet.priority = env.priority;
  packet.payload = pack_object(env);
  return packet;
}

Envelope Machine::unpack_delivery(net::Packet& packet) {
  Envelope env;
  unpack_object(packet.payload, env);
  ScratchArena::local().give(std::move(packet.payload));
  return env;
}

void Machine::register_core_metrics(obs::MetricRegistry& reg) {
  // One source under full names, so each snapshot samples the backend's
  // scheduler once.
  reg.add_source("", [this](obs::MetricSink& sink) {
    const SchedulerSample s = scheduler_sample();
    const ParkingLot::Counts lot = parking_.counts();
    sink.counter("rt.sched.msgs_executed", s.pes.msgs_executed);
    sink.counter("rt.sched.msgs_sent", s.pes.msgs_sent);
    sink.counter("rt.sched.msgs_dropped", s.pes.msgs_dropped);
    sink.counter("rt.sched.busy_ns", static_cast<std::uint64_t>(s.pes.busy_ns));
    sink.counter("rt.sched.pes_killed", pes_killed());
    sink.counter("rt.sched.stall_parked", lot.parked);
    sink.counter("rt.sched.stall_resumed", lot.resumed);
    sink.gauge("rt.sched.queue_depth", static_cast<double>(s.queue_depth));
    sink.gauge("rt.sched.parked_depth", static_cast<double>(lot.held));
    sink.counter("rt.sched.shard.handoffs", s.handoffs);
    sink.counter("rt.sched.shard.handoff_batches", s.handoff_batches);
    sink.gauge("rt.sched.shard.shards", static_cast<double>(s.shards));
    sink.counter("trace.events", s.trace.events);
    sink.counter("trace.dropped", s.trace.dropped);
    sink.gauge("trace.enabled", s.trace.enabled ? 1.0 : 0.0);
    sink.counter("mem.allocs", alloc::allocations());
    sink.counter("mem.frees", alloc::deallocations());
    sink.counter("mem.alloc_bytes", alloc::allocated_bytes());
    sink.gauge("mem.hook_active", alloc::hook_active() ? 1.0 : 0.0);
    sink.gauge("mem.arena_buffers",
               static_cast<double>(ScratchArena::local().size()));
  });
}

}  // namespace mdo::core
