#pragma once
// One application phase, measured the same way for every app: the
// registry snapshot before, the phase-marker pair around the run to
// quiescence, and the registry diff after. A phase's fabric counters are
// read from that diff (net::read_fabric_metrics), so they are the
// mesh-wide `fabric.*` numbers on Sim, Thread and Process alike.

#include <cstdint>
#include <functional>

#include "core/runtime.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace mdo::apps {

struct Phase {
  sim::TimeNs start = 0;    ///< machine time when `kick` ran
  sim::TimeNs elapsed = 0;  ///< from `start` to quiescence
  net::Fabric::Stats fabric{};  ///< the `fabric.*` part of `metrics`
  obs::Snapshot metrics;        ///< registry deltas for the phase
};

/// Snapshot the registry, open trace phase `phase`, run `kick` (which
/// posts the phase's work, usually one broadcast), run to quiescence,
/// close the phase marker, and diff the registry.
Phase run_phase(core::Runtime& rt, std::int32_t phase,
                const std::function<void()>& kick);

}  // namespace mdo::apps
