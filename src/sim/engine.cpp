#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace mdo::sim {

void Engine::schedule_at(TimeNs t, Callback fn) {
  MDO_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  std::size_t slot;
  if (free_.empty()) {
    slot = slots_.size();
    slots_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Event{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Engine::step() {
  if (stopped_ || heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  // Move the callback out before running it: it may schedule events
  // that reuse its slot or grow slots_.
  Callback fn = std::move(slots_[ev.slot]);
  free_.push_back(ev.slot);
  MDO_ASSERT(ev.time >= now_);
  now_ = ev.time;
  ++processed_;
  fn();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(TimeNs t) {
  MDO_CHECK(t >= now_);
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    step();
  }
  if (!stopped_) now_ = t;
}

void Engine::reset() {
  now_ = 0;
  next_seq_ = 0;
  processed_ = 0;
  stopped_ = false;
  heap_.clear();
  slots_.clear();
  free_.clear();
}

}  // namespace mdo::sim
