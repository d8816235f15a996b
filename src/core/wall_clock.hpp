#pragma once
// What the wall-clock backends (ThreadMachine, ProcessMachine) share on
// the execution side: the PE mailbox they execute from, the lock-free
// trace recorder and the body that runs one entry in real time.
// SimMachine charges virtual time instead and keeps a plain trace
// vector.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/machine.hpp"
#include "core/run_queue.hpp"
#include "obs/ring_buffer.hpp"

namespace mdo::core {

using WallTime = std::chrono::steady_clock::time_point;

/// Nanoseconds from `epoch` to `t`.
inline sim::TimeNs wall_since(WallTime epoch,
                              WallTime t = std::chrono::steady_clock::now()) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

/// A wall-clock PE's message queue: a RunQueue (most urgent first, FIFO
/// among equal priorities) under one mutex, with one condition variable
/// the consumer sleeps on. Any thread pushes; one consumer pops. No
/// call leaves the mailbox while its lock is held, so a caller that
/// pushes under its own lock (the fabric delivering from
/// `inject_receive`) keeps fabric -> mailbox the only lock order.
template <class T>
class Mailbox {
 public:
  void push(Priority priority, T&& value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push(priority, std::move(value));
      ++pushed_;
    }
    cv_.notify_one();
  }

  /// The most urgent value, or nullopt when the mailbox is empty.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    ++popped_;
    return queue_.pop();
  }

  /// Sleep while the mailbox is empty and `stop()` is false; idle()
  /// reads true meanwhile. `stop` is evaluated under the lock, so a flag
  /// it reads must be set before wake_all().
  template <class Stop>
  void wait(Stop stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [&] { return !queue_.empty() || stop(); };
    if (ready()) return;
    sleeping_ = true;
    cv_.wait(lock, ready);
    sleeping_ = false;
  }

  /// wait() for at most `timeout`.
  template <class Stop>
  void wait_for(std::chrono::nanoseconds timeout, Stop stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [&] { return !queue_.empty() || stop(); };
    if (ready()) return;
    sleeping_ = true;
    cv_.wait_for(lock, timeout, ready);
    sleeping_ = false;
  }

  /// Wake every sleeper. Takes the lock before notifying, so a sleeper
  /// that has just found `stop()` false cannot miss the notification.
  void wake_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }

  /// The consumer sleeps in wait() on an empty mailbox.
  bool idle() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sleeping_ && queue_.empty();
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.empty();
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }
  std::uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }
  std::uint64_t popped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return popped_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  RunQueue<T> queue_;
  bool sleeping_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
};

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
