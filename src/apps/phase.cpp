#include "apps/phase.hpp"

#include "net/metrics.hpp"

namespace mdo::apps {

Phase run_phase(core::Runtime& rt, std::int32_t phase,
                const std::function<void()>& kick) {
  core::Machine& machine = rt.machine();
  const obs::Snapshot before = machine.metrics().snapshot();
  machine.trace_phase(phase);
  Phase result;
  result.start = rt.now();
  kick();
  rt.run();
  machine.trace_phase(phase);
  result.elapsed = rt.now() - result.start;
  result.metrics = machine.metrics().snapshot().diff(before);
  result.fabric = net::read_fabric_metrics(result.metrics);
  return result;
}

}  // namespace mdo::apps
