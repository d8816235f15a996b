#pragma once
// Discrete-event fabric: the fabric core on a sim::Engine. Every held
// frame and device timer becomes an engine event, so a run is
// deterministic in virtual time. Single-threaded, so the core takes no
// lock.

#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace mdo::net {

class SimFabric final : public Fabric {
 public:
  /// All pointers are borrowed and must outlive the fabric. `chain` may
  /// be empty (fast path: no payload transforms).
  SimFabric(sim::Engine* engine, const Topology* topo, LatencyModel* model,
            Chain chain);

  sim::TimeNs host_now() const override { return engine_->now(); }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override {
    engine_->schedule_after(dt, std::move(fn));
  }

 private:
  void hold(sim::TimeNs due, Packet&& frame) override;

  sim::Engine* engine_;
};

}  // namespace mdo::net
