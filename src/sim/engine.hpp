#pragma once
// Sequential discrete-event simulation engine.
//
// This is the substitute for the paper's physical testbeds (DESIGN.md §3):
// every simulated processor, network link, and delay device schedules
// callbacks here, and the engine executes them in nondecreasing virtual
// time. Ties are broken by insertion sequence, which makes every run
// fully deterministic — a FIFO among same-time events.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace mdo::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time. Monotonically nondecreasing across callbacks.
  TimeNs now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (must be >= now()).
  void schedule_at(TimeNs t, Callback fn);

  /// Schedule `fn` at now() + dt (dt >= 0).
  void schedule_after(TimeNs dt, Callback fn) { schedule_at(now_ + dt, std::move(fn)); }

  /// Execute the earliest pending event. Returns false if none remain
  /// or stop() was requested.
  bool step();

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run events with time <= t, then set now() = t.
  void run_until(TimeNs t);

  /// Request that run()/step() cease after the current callback.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  void clear_stop() { stopped_ = false; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Drop all pending events and reset the clock (for test reuse).
  void reset();

 private:
  /// Heap entry: the ordering key plus the index of the event's callback
  /// in slots_, so sifting moves three words instead of a std::function.
  struct Event {
    TimeNs time;
    std::uint64_t seq;
    std::size_t slot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::vector<Event> heap_;         ///< min-heap on (time, seq) under Later
  std::vector<Callback> slots_;     ///< callbacks of pending events
  std::vector<std::size_t> free_;   ///< slots_ entries not in use
};

}  // namespace mdo::sim
