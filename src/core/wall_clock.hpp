#pragma once
// What the wall-clock backends (ThreadMachine, ProcessMachine) share on
// the execution side: the lock-free trace recorder and the body that
// runs one entry in real time. SimMachine charges virtual time instead
// and keeps a plain trace vector.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "core/machine.hpp"
#include "obs/ring_buffer.hpp"

namespace mdo::core {

using WallTime = std::chrono::steady_clock::time_point;

/// Nanoseconds from `epoch` to `t`.
inline sim::TimeNs wall_since(WallTime epoch,
                              WallTime t = std::chrono::steady_clock::now()) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

/// Entry-interval tracing into single-producer rings: one per PE (its
/// worker records without a lock) plus one for the host thread's phase
/// markers. A full ring drops and counts events instead of blocking.
class TraceRecorder {
 public:
  /// Turn recording on or off. The first enable allocates the rings —
  /// one per PE plus the host ring at index `pes` — and must precede
  /// traffic, because producers index the rings without a lock.
  void set_enabled(bool on, std::size_t pes, bool traffic_started);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Record into `ring`; the caller must be that ring's only producer.
  void record(std::size_t ring, const TraceEvent& ev) {
    if (enabled()) rings_[ring]->push(ev);
  }

  /// Take what `ring` holds so far (empty if tracing never started).
  std::vector<TraceEvent> drain(std::size_t ring) {
    return ring < rings_.size() ? rings_[ring]->drain()
                                : std::vector<TraceEvent>{};
  }

  /// Everything recorded so far plus `remote` (events fetched from other
  /// processes), ordered by begin time, then PE. Complete once traffic
  /// has quiesced.
  std::vector<TraceEvent> collect(std::vector<TraceEvent> remote = {}) const;

  TraceStats stats() const;

 private:
  std::atomic<bool> enabled_{false};
  std::vector<std::unique_ptr<obs::SpscRing<TraceEvent>>> rings_;
  mutable std::mutex mutex_;
  mutable std::vector<TraceEvent> collected_;
};

/// Run `env`'s entry on the calling thread as PE `pe`: deliver it, sleep
/// out its charged CPU time when `emulate_charge` (so modeled workloads
/// take real time), and record the interval into `trace` ring `pe`.
/// Returns the wall-clock busy time.
sim::TimeNs execute_entry(Runtime& rt, Envelope&& env, Pe pe,
                          bool emulate_charge, TraceRecorder& trace,
                          WallTime epoch);

}  // namespace mdo::core
