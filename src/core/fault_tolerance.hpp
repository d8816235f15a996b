#pragma once
// Node-crash fault tolerance after the FTC-Charm++ protocol: periodic
// double in-memory checkpointing at quiescent points, a heartbeat-based
// failure detector on the message layer, and automatic recovery that
// restores the lost elements from buddy copies onto surviving PEs.
//
// Protocol sketch (all at quiescent points, driven by the host loop):
//   ft.checkpoint();          // snapshot every element; owner + buddy copy
//   ft.watch(horizon);        // arm the failure detector for the phase
//   ...run a phase of work...
//   if (ft.failure_detected()) {
//     auto report = ft.recover();   // rebuild tree, restore + roll back
//     ...re-issue the phase's work...
//   }
//
// A checkpoint is one serialized pup blob per element, held (conceptually)
// on two PEs: the owner and a buddy — the next alive PE in the owner's
// cluster, falling back to the next alive PE globally when the owner is
// its cluster's sole survivor. A crash loses every copy held on the dead
// PE; recovery is only impossible (and fatally reported) when owner and
// buddy died together. On the one-address-space backends (sim, thread)
// the two copies are modeled by recording both holder PEs against one
// stored blob; the bandwidth charge still pays for both transfers. On
// ProcessMachine the checkpoint blobs are pulled into the host process
// over the socket fabric at the quiescent point, so a SIGKILLed PE's
// state genuinely survives its address space.
//
// Recovery performs a full rollback: dead PEs' elements are restored onto
// placement-chosen survivors (grid-aware: home cluster first), and the
// survivors' elements roll back to the same checkpoint so the whole
// computation restarts from one consistent cut. The spanning tree is
// rebuilt over the alive PEs, and a fresh checkpoint is taken immediately
// so a second crash never rolls back further than the recovery point.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "core/types.hpp"
#include "net/reliable.hpp"
#include "util/buffer.hpp"

namespace mdo::core {

struct RecoveryReport {
  std::vector<Pe> dead;                   ///< PEs lost in this recovery
  std::size_t elements_restored = 0;      ///< rebuilt from buddy copies
  std::size_t elements_rolled_back = 0;   ///< survivors rolled back
  std::size_t restored_bytes = 0;         ///< checkpoint bytes re-applied
  sim::TimeNs detected_at = 0;            ///< earliest failure detection
  sim::TimeNs recovered_at = 0;           ///< machine time after recovery
};

class FaultTolerance {
 public:
  /// Chooses the new home of a lost element. `old_pe` is the dead owner;
  /// return an alive PE. The default walks the ring of alive PEs starting
  /// after old_pe, preferring the home cluster (see ldb::recovery_placer
  /// for the load-aware grid placement).
  using PlacementFn = std::function<Pe(ArrayId, const Index&, Pe old_pe,
                                       const std::vector<bool>& alive)>;

  /// Wires the detector callbacks (heartbeat *confirmed* death
  /// declarations and reliable-layer peer-unreachable give-ups) into
  /// this manager. A merely suspected peer never reaches here: while the
  /// heartbeat corroborates via indirect probes, the reliable layer
  /// quarantines the peer's flows instead of burning retransmissions,
  /// and only the suspect→dead confirmation triggers recovery. The stack
  /// may lack either device; detection then relies on the other signal
  /// (or on the machine's own alive_pes ground truth at recover).
  FaultTolerance(Runtime& rt, const net::ReliabilityStack& stack);

  void set_placement(PlacementFn fn) { placement_ = std::move(fn); }

  /// Snapshot every element of every array (quiescent points only).
  /// Replaces the previous checkpoint wholesale.
  void checkpoint();

  /// Arm the failure detector for the next `horizon` of machine time.
  void watch(sim::TimeNs horizon);

  /// True once any peer has been confirmed dead (heartbeat, past the
  /// confirm window with failed indirect probes) or abandoned (reliable
  /// give-up budget exhausted) since the last recover(). A transient
  /// partition that heals inside the confirm window never sets this.
  /// Thread-safe.
  bool failure_detected() const;

  /// Peers flagged since the last recover(), ascending. Thread-safe.
  std::vector<Pe> detected_dead() const;

  /// Restore from the last checkpoint after one or more node deaths
  /// (quiescent points only). Uses the machine's alive_pes() as ground
  /// truth, rebuilds the spanning tree, restores lost elements via the
  /// placement function, rolls every survivor back, and immediately
  /// re-checkpoints. Fatal if a blob's owner and buddy both died.
  RecoveryReport recover();

  std::uint64_t checkpoints_taken() const { return checkpoints_; }
  /// Bytes held by the current checkpoint, counting both copies.
  std::size_t checkpoint_bytes() const { return stored_bytes_ * 2; }
  /// Machine time the last checkpoint() call charged.
  sim::TimeNs last_checkpoint_cost() const { return last_checkpoint_cost_; }

  /// Modeled copy bandwidth for checkpoint and restore time (the
  /// per-byte charge the load balancers use for migrations). The charge
  /// goes through Machine::advance_time, so it moves only the virtual
  /// clock; the wall-clock backends ignore it.
  static constexpr double kCopyBytesPerUs = 250.0;

 private:
  struct Snapshot {
    Pe owner = kInvalidPe;
    Pe buddy = kInvalidPe;
    Bytes state;
  };

  Pe buddy_of(Pe owner, const std::vector<bool>& alive) const;
  Pe default_placement(Pe old_pe, const std::vector<bool>& alive) const;
  void flag_dead(Pe pe, sim::TimeNs when);

  Runtime* rt_;
  const net::ReliabilityStack* stack_;
  PlacementFn placement_;

  // One blob per element, keyed (array, index); map iteration gives a
  // deterministic recovery order.
  std::map<std::pair<ArrayId, Index>, Snapshot> store_;
  std::size_t stored_bytes_ = 0;
  std::uint64_t checkpoints_ = 0;
  sim::TimeNs last_checkpoint_cost_ = 0;

  // Detector state: written from fabric context (DES callback or the
  // SocketFabric network thread), read from host context.
  mutable std::mutex mutex_;
  std::vector<bool> flagged_;            ///< dead since last recover()
  std::vector<sim::TimeNs> flagged_at_;
};

}  // namespace mdo::core
