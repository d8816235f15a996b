#pragma once
// Analytic network timing: given (src, dst, bytes, now), produce the
// delivery delay. This models the physical fabrics of DESIGN.md §3:
// an α–β (latency + 1/bandwidth) model per link class, an optional
// serialized WAN link with per-direction contention, and optional
// deterministic jitter. The artificial-latency knob of the paper's
// "simulated Grid environment" is NOT here — it is the DelayDevice in
// the device chain, matching the paper's VMI architecture.

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mdo::net {

// LinkParams lives in net/topology.hpp next to the per-pair link table.

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Delay from hand-off at `src` until delivery at `dst` for a packet of
  /// `bytes`, when injected at virtual time `now`. May mutate internal
  /// contention state, so calls must happen in nondecreasing `now` order
  /// per link (the DES guarantees this).
  virtual sim::TimeNs delivery_delay(NodeId src, NodeId dst,
                                     std::size_t bytes, sim::TimeNs now) = 0;
};

/// Uniform fixed delay regardless of endpoints; unit-test workhorse.
class FixedLatencyModel final : public LatencyModel {
 public:
  explicit FixedLatencyModel(sim::TimeNs delay) : delay_(delay) {}
  sim::TimeNs delivery_delay(NodeId, NodeId, std::size_t, sim::TimeNs) override {
    return delay_;
  }

 private:
  sim::TimeNs delay_;
};

/// The two-level grid fabric: intra-cluster SAN (Myrinet-class α–β),
/// inter-cluster WAN (TCP-class α–β) with optional FIFO contention on a
/// single serialized link per directed cluster pair, plus optional
/// bounded deterministic jitter on WAN hops.
class GridLatencyModel final : public LatencyModel {
 public:
  struct Config {
    LinkParams local{sim::microseconds(0.5), 4000.0};   ///< same node
    LinkParams intra{sim::microseconds(6.5), 250.0};    ///< Myrinet-2000
    LinkParams inter{sim::microseconds(6.5), 250.0};    ///< defaults to SAN;
                                                        ///< real-grid mode overrides
    bool wan_contention = false;  ///< serialize the WAN link per direction
    double wan_jitter_fraction = 0.0;  ///< uniform extra in [0, f·α_wan]
    /// Consult the Topology's per-directed-pair WAN link table for
    /// inter-cluster hops, falling back to `inter` for pairs without an
    /// entry. Off by default: the paper's artificial mode keeps physical
    /// links SAN-class and realizes the table in the DelayDevice instead,
    /// so the same logical geometry is never charged twice.
    bool use_topology_links = false;
  };

  GridLatencyModel(const Topology* topo, Config config);

  sim::TimeNs delivery_delay(NodeId src, NodeId dst, std::size_t bytes,
                             sim::TimeNs now) override;

  const Config& config() const { return config_; }

  /// Reset contention bookkeeping (between benchmark repetitions).
  void reset();

 private:
  const Topology* topo_;
  Config config_;
  // link_free_[src_cluster * C + dst_cluster]: earliest time the directed
  // WAN pipe can accept the next packet.
  std::vector<sim::TimeNs> link_free_;
  SplitMix64 jitter_rng_;
};

}  // namespace mdo::net
