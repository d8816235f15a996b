#include "net/sim_fabric.hpp"

#include "util/assert.hpp"

namespace mdo::net {

SimFabric::SimFabric(sim::Engine* engine, const Topology* topo,
                     LatencyModel* model, Chain chain)
    : Fabric(topo, model, std::move(chain), std::nullopt, nullptr),
      engine_(engine) {
  MDO_CHECK(engine_ != nullptr);
}

void SimFabric::hold(sim::TimeNs due, Packet&& frame) {
  engine_->schedule_at(due, [this, p = std::move(frame)]() mutable {
    arrive(std::move(p));
  });
}

}  // namespace mdo::net
