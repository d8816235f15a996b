#pragma once
// Measurement-based load-balancing database, after Charm++'s LBDatabase:
// the runtime instruments every element with accumulated compute time and
// message counts (core/chare.hpp); collect() snapshots them into a
// balancer-friendly view at a quiescent point.

#include <cstdint>
#include <vector>

#include "core/runtime.hpp"
#include "core/types.hpp"

namespace mdo::ldb {

struct ObjectRecord {
  core::ArrayId array = -1;
  core::Index index{};
  core::Pe pe = core::kInvalidPe;
  sim::TimeNs load_ns = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t wan_msgs = 0;
  std::uint64_t wan_bytes = 0;

  bool talks_over_wan() const { return wan_msgs > 0; }
};

struct LbSnapshot {
  int num_pes = 0;
  const net::Topology* topo = nullptr;
  std::vector<ObjectRecord> objects;      ///< deterministic order
  std::vector<sim::TimeNs> pe_load;       ///< per-PE sum of object loads

  double max_load() const;
  double avg_load() const;
  /// max/avg imbalance ratio (1.0 = perfectly balanced).
  double imbalance() const;
};

/// Snapshot all arrays of the runtime (quiescent point).
LbSnapshot collect(core::Runtime& rt);

/// Zero all element instrumentation (start of a new measurement window).
void reset_measurements(core::Runtime& rt);

struct Move {
  core::ArrayId array = -1;
  core::Index index{};
  core::Pe to = core::kInvalidPe;
};

/// Execute a migration plan.
void apply(core::Runtime& rt, const std::vector<Move>& moves);

}  // namespace mdo::ldb
