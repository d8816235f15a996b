#include "net/metrics.hpp"

#include <string>
#include <utility>

#include "net/adaptive.hpp"
#include "net/coalesce.hpp"
#include "net/devices.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/heartbeat.hpp"
#include "net/reliable.hpp"
#include "net/striping.hpp"

namespace mdo::net {
namespace {

/// Register a device source that reads the device under its fabric's
/// lock: on Thread and Process, sends and fabric timers write device
/// state on other threads while a snapshot runs.
template <typename Device, typename Publish>
void add_device_source(obs::MetricRegistry& reg, const char* prefix,
                       const Device& dev, Publish publish) {
  reg.add_source(prefix, [&dev, publish](obs::MetricSink& sink) {
    dev.with_host_lock([&] { publish(sink); });
  });
}

}  // namespace

void register_metrics(obs::MetricRegistry& reg, const ReliableDevice& dev) {
  add_device_source(reg, "net.reliable", dev, [&dev](obs::MetricSink& sink) {
    const auto& c = dev.counters();
    sink.counter("data_sent", c.data_sent);
    sink.counter("retransmits", c.retransmits);
    sink.counter("fast_retransmits", c.fast_retransmits);
    sink.counter("spurious_retransmits", c.spurious_retransmits);
    sink.counter("acks_sent", c.acks_sent);
    sink.counter("acks_received", c.acks_received);
    sink.counter("delivered", c.delivered);
    sink.counter("duplicates_suppressed", c.duplicates_suppressed);
    sink.counter("out_of_order_buffered", c.out_of_order_buffered);
    sink.counter("malformed_dropped", c.malformed_dropped);
    sink.counter("flows_abandoned", c.flows_abandoned);
    sink.counter("frames_held", c.frames_held);
    sink.counter("quarantines_started", c.quarantines_started);
    sink.counter("quarantines_resumed", c.quarantines_resumed);
    sink.counter("backpressure_events", c.backpressure_events);
    sink.counter("peers_abandoned", c.peers_abandoned);
    sink.counter("quarantine_peak_frames", c.quarantine_peak_frames);
    sink.counter("quarantine_peak_bytes", c.quarantine_peak_bytes);
    sink.histogram("ack_rtt_ns", dev.ack_rtt_ns());
    sink.histogram("wan_ack_rtt_ns", dev.wan_ack_rtt_ns());
    sink.gauge("unacked_frames", static_cast<double>(dev.unacked_frames()));
    sink.gauge("buffered_packets",
               static_cast<double>(dev.buffered_packets()));
  });
}

void register_metrics(obs::MetricRegistry& reg, const FaultDevice& dev) {
  add_device_source(reg, "net.fault", dev, [&dev](obs::MetricSink& sink) {
    const auto& c = dev.counters();
    sink.counter("seen", c.seen);
    sink.counter("dropped", c.dropped);
    sink.counter("duplicated", c.duplicated);
    sink.counter("corrupted", c.corrupted);
    sink.counter("reordered", c.reordered);
    sink.counter("partition_dropped", c.partition_dropped);
  });
}

void register_metrics(obs::MetricRegistry& reg, const HeartbeatDevice& dev) {
  add_device_source(reg, "net.heartbeat", dev, [&dev](obs::MetricSink& sink) {
    const auto& c = dev.counters();
    sink.counter("beats_sent", c.beats_sent);
    sink.counter("beats_received", c.beats_received);
    sink.counter("suspects_raised", c.suspects_raised);
    sink.counter("suspects_cleared", c.suspects_cleared);
    sink.counter("probes_sent", c.probes_sent);
    sink.counter("probes_relayed", c.probes_relayed);
    sink.counter("probe_acks", c.probe_acks);
    sink.counter("peers_declared_dead", c.peers_declared_dead);
  });
}

void register_metrics(obs::MetricRegistry& reg, const CoalesceDevice& dev) {
  add_device_source(reg, "net.coalesce", dev, [&dev](obs::MetricSink& sink) {
    const auto& c = dev.counters();
    sink.counter("packets_seen", c.packets_seen);
    sink.counter("packets_bundled", c.packets_bundled);
    sink.counter("bundles_sent", c.bundles_sent);
    sink.counter("bundle_bytes", c.bundle_bytes);
    sink.counter("bypass_urgent", c.bypass_urgent);
    sink.counter("bypass_large", c.bypass_large);
    sink.counter("bypass_local", c.bypass_local);
    sink.counter("eager_sent", c.eager_sent);
    sink.counter("flush_size", c.flush_size);
    sink.counter("flush_timer", c.flush_timer);
    sink.counter("flush_idle", c.flush_idle);
    sink.counter("flush_bypass", c.flush_bypass);
    sink.counter("packets_unbundled", c.packets_unbundled);
    sink.counter("malformed_dropped", c.malformed_dropped);
    sink.counter("frames_saved", c.frames_saved());
    sink.gauge("mean_occupancy", c.mean_occupancy());
    sink.gauge("pending_packets", static_cast<double>(dev.pending_packets()));
  });
}

void register_metrics(obs::MetricRegistry& reg, const ChecksumDevice& dev) {
  add_device_source(reg, "net.checksum", dev, [&dev](obs::MetricSink& sink) {
    sink.counter("packets_verified", dev.packets_verified());
    sink.counter("corrupt_dropped", dev.corrupt_dropped());
  });
}

void register_metrics(obs::MetricRegistry& reg, const CompressionDevice& dev) {
  add_device_source(reg, "net.compress", dev, [&dev](obs::MetricSink& sink) {
    sink.counter("bytes_saved", dev.bytes_saved());
    sink.counter("decode_failures", dev.decode_failures());
  });
}

void register_metrics(obs::MetricRegistry& reg, const StripingDevice& dev) {
  add_device_source(reg, "net.stripe", dev, [&dev](obs::MetricSink& sink) {
    sink.counter("packets_striped", dev.packets_striped());
    sink.counter("fragments_squashed", dev.fragments_squashed());
    sink.gauge("pending_reassemblies",
               static_cast<double>(dev.pending_reassemblies()));
  });
}

void register_metrics(obs::MetricRegistry& reg, const AdaptiveController& dev) {
  reg.add_source("net.adaptive", [&dev](obs::MetricSink& sink) {
    const auto& c = dev.counters();
    sink.counter("samples", c.samples);
    sink.counter("retunes_total", c.retunes_total);
    sink.counter("window_widened", c.window_widened);
    sink.counter("window_narrowed", c.window_narrowed);
    sink.counter("window_clamped_detector", c.window_clamped_detector);
    sink.counter("stripe_widened", c.stripe_widened);
    sink.counter("stripe_narrowed", c.stripe_narrowed);
    sink.counter("compress_disabled", c.compress_disabled);
    sink.counter("compress_enabled", c.compress_enabled);
    sink.counter("queue_relief", c.queue_relief);
    sink.counter("hysteresis_holds", c.hysteresis_holds);
    sink.counter("cooldown_holds", c.cooldown_holds);
    sink.gauge("rtt_ewma_ns", dev.rtt_ewma_ns());
    sink.gauge("drift", dev.drift());
    sink.gauge("flush_window_ns", static_cast<double>(dev.flush_window()));
    sink.gauge("rails", static_cast<double>(dev.rails()));
    sink.gauge("compress_on", dev.compress_on() ? 1.0 : 0.0);
  });
}

void register_metrics(obs::MetricRegistry& reg, const ReliabilityStack& stack) {
  if (stack.coalesce != nullptr) register_metrics(reg, *stack.coalesce);
  if (stack.compress != nullptr) register_metrics(reg, *stack.compress);
  if (stack.stripe != nullptr) register_metrics(reg, *stack.stripe);
  if (stack.reliable != nullptr) register_metrics(reg, *stack.reliable);
  if (stack.heartbeat != nullptr) register_metrics(reg, *stack.heartbeat);
  if (stack.checksum != nullptr) register_metrics(reg, *stack.checksum);
  if (stack.faults != nullptr) register_metrics(reg, *stack.faults);
}

namespace {

/// The fabric's counters and their names under `fabric.*`, for both
/// directions: publication and read-back.
constexpr std::pair<const char*, std::uint64_t Fabric::Stats::*>
    kFabricCounters[] = {
        {"packets_sent", &Fabric::Stats::packets_sent},
        {"bytes_sent", &Fabric::Stats::bytes_sent},
        {"packets_delivered", &Fabric::Stats::packets_delivered},
        {"wan_packets", &Fabric::Stats::wan_packets},
        {"wan_bytes", &Fabric::Stats::wan_bytes},
        {"frames_injected", &Fabric::Stats::frames_injected},
        {"dead_node_drops", &Fabric::Stats::dead_node_drops},
        {"wire_frames", &Fabric::Stats::wire_frames},
        {"wan_wire_frames", &Fabric::Stats::wan_wire_frames},
};

}  // namespace

void register_fabric_metrics(obs::MetricRegistry& reg, const Fabric& fabric) {
  reg.add_source("fabric", [&fabric](obs::MetricSink& sink) {
    const Fabric::Stats s = fabric.stats();
    for (const auto& [name, field] : kFabricCounters) {
      sink.counter(name, s.*field);
    }
  });
}

Fabric::Stats read_fabric_metrics(const obs::Snapshot& snap) {
  Fabric::Stats s;
  for (const auto& [name, field] : kFabricCounters) {
    s.*field = snap.counter(std::string("fabric.") + name);
  }
  return s;
}

}  // namespace mdo::net
