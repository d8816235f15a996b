#include "core/fault_tolerance.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mdo::core {

FaultTolerance::FaultTolerance(Runtime& rt, const net::ReliabilityStack& stack)
    : rt_(&rt),
      stack_(&stack),
      flagged_(static_cast<std::size_t>(rt.num_pes()), false),
      flagged_at_(static_cast<std::size_t>(rt.num_pes()), 0) {
  if (stack_->heartbeat != nullptr) {
    // Fires only on confirmed death (suspect aged past the confirm
    // window with indirect probes unanswered), never on mere suspicion.
    stack_->heartbeat->set_on_peer_dead(
        [this](net::NodeId node, sim::TimeNs when) {
          flag_dead(static_cast<Pe>(node), when);
        });
  }
  if (stack_->reliable != nullptr) {
    stack_->reliable->set_on_peer_unreachable(
        [this](net::NodeId peer, net::NodeId /*self*/) {
          flag_dead(static_cast<Pe>(peer), rt_->now());
        });
  }
}

void FaultTolerance::flag_dead(Pe pe, sim::TimeNs when) {
  if (pe < 0 || pe >= rt_->num_pes()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (flagged_[static_cast<std::size_t>(pe)]) return;
  flagged_[static_cast<std::size_t>(pe)] = true;
  flagged_at_[static_cast<std::size_t>(pe)] = when;
}

bool FaultTolerance::failure_detected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::find(flagged_.begin(), flagged_.end(), true) != flagged_.end();
}

std::vector<Pe> FaultTolerance::detected_dead() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Pe> out;
  for (std::size_t pe = 0; pe < flagged_.size(); ++pe) {
    if (flagged_[pe]) out.push_back(static_cast<Pe>(pe));
  }
  return out;
}

void FaultTolerance::watch(sim::TimeNs horizon) {
  // Multi-process backends arm the detector in every child first (each
  // process beats only for itself; an unarmed child never beats and
  // would be misread as dead). On Sim/Thread this is a no-op.
  rt_->machine().watch_detector(horizon);
  if (stack_->heartbeat != nullptr) stack_->heartbeat->watch(horizon);
}

Pe FaultTolerance::buddy_of(Pe owner, const std::vector<bool>& alive) const {
  const net::Topology& topo = rt_->topology();
  const Pe n = rt_->num_pes();
  const net::ClusterId home = topo.cluster_of(static_cast<net::NodeId>(owner));
  // First choice: the next alive PE on the ring that shares the owner's
  // cluster (keeps the restore copy off the WAN).
  for (Pe step = 1; step < n; ++step) {
    Pe pe = static_cast<Pe>((owner + step) % n);
    if (!alive[static_cast<std::size_t>(pe)]) continue;
    if (topo.cluster_of(static_cast<net::NodeId>(pe)) == home) return pe;
  }
  // Owner is its cluster's sole survivor: any alive PE elsewhere.
  for (Pe step = 1; step < n; ++step) {
    Pe pe = static_cast<Pe>((owner + step) % n);
    if (alive[static_cast<std::size_t>(pe)]) return pe;
  }
  MDO_CHECK_MSG(false, "no alive buddy PE available");
  return kInvalidPe;
}

Pe FaultTolerance::default_placement(Pe old_pe,
                                     const std::vector<bool>& alive) const {
  // Same ring walk as buddy selection: home cluster first. old_pe itself
  // is dead, so the != owner concern does not arise.
  return buddy_of(old_pe, alive);
}

void FaultTolerance::checkpoint() {
  // The walk below reads element state in-place, which is only current
  // for process-local elements: pull remote PEs' state home first on
  // multi-process backends (no-op on Sim/Thread).
  rt_->machine().sync_remote_elements();
  const std::vector<bool> alive = rt_->machine().alive_pes();
  store_.clear();
  stored_bytes_ = 0;
  for (std::size_t a = 0; a < rt_->num_arrays(); ++a) {
    auto id = static_cast<ArrayId>(a);
    ArrayBase& arr = rt_->array(id);
    for (const Index& index : arr.all_indices()) {
      Snapshot snap;
      snap.owner = arr.location(index);
      MDO_CHECK_MSG(alive[static_cast<std::size_t>(snap.owner)],
                    "checkpoint found an element on a dead PE (recover first)");
      snap.buddy = buddy_of(snap.owner, alive);
      {
        Pup p = Pup::packer(snap.state);
        arr.find(index)->pup(p);
      }
      stored_bytes_ += snap.state.size();
      store_.emplace(std::make_pair(id, index), std::move(snap));
    }
  }
  ++checkpoints_;
  // Two copies cross the memory system (one stays home, one travels to
  // the buddy); charge both against the modeled copy bandwidth.
  const double us = static_cast<double>(stored_bytes_) * 2.0 / kCopyBytesPerUs;
  last_checkpoint_cost_ = sim::microseconds(us);
  rt_->machine().advance_time(last_checkpoint_cost_);
}

RecoveryReport FaultTolerance::recover() {
  MDO_CHECK_MSG(checkpoints_ > 0, "recover() without a prior checkpoint");
  RecoveryReport report;
  const std::vector<bool> alive = rt_->machine().alive_pes();
  MDO_CHECK_MSG(alive[0], "PE 0 hosts the mainchare and cannot be dead");
  for (Pe pe = 0; pe < rt_->num_pes(); ++pe) {
    if (!alive[static_cast<std::size_t>(pe)]) report.dead.push_back(pe);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report.detected_at = 0;
    for (std::size_t pe = 0; pe < flagged_.size(); ++pe) {
      if (!flagged_[pe]) continue;
      if (report.detected_at == 0 || flagged_at_[pe] < report.detected_at) {
        report.detected_at = flagged_at_[pe];
      }
    }
    std::fill(flagged_.begin(), flagged_.end(), false);
  }
  if (report.dead.empty()) {
    // Spurious detection (e.g. a reliable-layer give-up under extreme
    // loss): nothing actually died, so nothing to restore.
    report.recovered_at = rt_->now();
    return report;
  }

  rt_->rebuild_tree(alive);
  for (const auto& [key, snap] : store_) {
    const bool owner_lost = !alive[static_cast<std::size_t>(snap.owner)];
    const bool buddy_lost = !alive[static_cast<std::size_t>(snap.buddy)];
    MDO_CHECK_MSG(!(owner_lost && buddy_lost),
                  "unrecoverable: an element's owner and buddy PEs died "
                  "together (double in-memory checkpointing tolerates one "
                  "of the pair)");
    Pe to;
    if (owner_lost) {
      to = placement_ ? placement_(key.first, key.second, snap.owner, alive)
                      : default_placement(snap.owner, alive);
      MDO_CHECK_MSG(to >= 0 && to < rt_->num_pes() &&
                        alive[static_cast<std::size_t>(to)],
                    "recovery placement chose a dead or invalid PE");
      ++report.elements_restored;
    } else {
      to = snap.owner;
      ++report.elements_rolled_back;
    }
    rt_->replace_element(key.first, key.second, to, snap.state);
    report.restored_bytes += snap.state.size();
  }
  // Restoring ships one copy of every blob (survivors read theirs from
  // local memory, lost ones cross from the buddy; charge the total).
  rt_->machine().advance_time(sim::microseconds(
      static_cast<double>(report.restored_bytes) / kCopyBytesPerUs));
  // Re-checkpoint immediately: a second crash must not roll back past
  // this recovery point (and the new buddy assignments avoid the dead).
  checkpoint();
  report.recovered_at = rt_->now();
  return report;
}

}  // namespace mdo::core
