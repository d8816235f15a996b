#pragma once
// Metric publication for the net layer: one register_metrics overload per
// device plus conveniences for a whole ReliabilityStack and a Fabric.
// Devices keep their plain Counters structs on the hot path; these
// functions register read-only sources that copy the counters into a
// MetricSink when the registry is snapshotted.
//
// Naming scheme (hierarchical, dot-separated):
//   net.reliable.*   net.fault.*   net.heartbeat.*   net.coalesce.*
//   net.checksum.*   net.stripe.*  net.compress.*    fabric.*
//
// The registered device must outlive every snapshot() call on the
// registry (sources capture raw pointers). Machines satisfy this by
// owning both the fabric (which owns the chain and devices) and the
// registry.

#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace mdo::net {

class AdaptiveController;
class ReliableDevice;
class FaultDevice;
class HeartbeatDevice;
class CoalesceDevice;
class ChecksumDevice;
class CompressionDevice;
class StripingDevice;
struct ReliabilityStack;

void register_metrics(obs::MetricRegistry& reg, const ReliableDevice& dev);
void register_metrics(obs::MetricRegistry& reg, const FaultDevice& dev);
void register_metrics(obs::MetricRegistry& reg, const HeartbeatDevice& dev);
void register_metrics(obs::MetricRegistry& reg, const CoalesceDevice& dev);
void register_metrics(obs::MetricRegistry& reg, const ChecksumDevice& dev);
void register_metrics(obs::MetricRegistry& reg, const CompressionDevice& dev);
void register_metrics(obs::MetricRegistry& reg, const StripingDevice& dev);
/// Controller decisions under `net.adaptive.*`: every retune (and every
/// hold) is visible in snapshot diffs.
void register_metrics(obs::MetricRegistry& reg, const AdaptiveController& dev);

/// Register every installed device of `stack` (null members are skipped).
void register_metrics(obs::MetricRegistry& reg, const ReliabilityStack& stack);

/// Wire-frame statistics of a fabric, under `fabric.*`.
void register_fabric_metrics(obs::MetricRegistry& reg, const Fabric& fabric);

/// The `fabric.*` counters of a snapshot (or of a snapshot diff) as
/// Fabric::Stats; absent keys read 0. On ProcessMachine the machine
/// registry sums every process's fabric under these keys, so this is
/// the one way to read mesh-wide fabric counters on any backend.
Fabric::Stats read_fabric_metrics(const obs::Snapshot& snap);

}  // namespace mdo::net
