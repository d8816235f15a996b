#include "core/wall_clock.hpp"

#include <algorithm>
#include <thread>

#include "core/runtime.hpp"
#include "util/assert.hpp"

namespace mdo::core {

void TraceRecorder::set_enabled(bool on, std::size_t pes,
                                bool traffic_started) {
  if (on && rings_.empty()) {
    MDO_CHECK_MSG(!traffic_started,
                  "tracing must be enabled before traffic flows (on "
                  "ProcessMachine: before the first run() forks)");
    constexpr std::size_t kRingCapacity = 1u << 15;
    rings_.reserve(pes + 1);
    for (std::size_t i = 0; i < pes + 1; ++i) {
      rings_.push_back(
          std::make_unique<obs::SpscRing<TraceEvent>>(kRingCapacity));
    }
  }
  enabled_.store(on, std::memory_order_release);
}

std::vector<TraceEvent> TraceRecorder::collect(
    std::vector<TraceEvent> remote) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    for (auto& ev : ring->drain()) collected_.push_back(ev);
  }
  collected_.insert(collected_.end(), remote.begin(), remote.end());
  std::vector<TraceEvent> out = collected_;
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.pe < b.pe;
            });
  return out;
}

TraceStats TraceRecorder::stats() const {
  TraceStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.events = collected_.size();
  }
  for (const auto& ring : rings_) {
    s.events += ring->size();
    s.dropped += ring->dropped();
  }
  s.enabled = enabled();
  return s;
}

sim::TimeNs execute_entry(Runtime& rt, Envelope&& env, Pe pe,
                          bool emulate_charge, TraceRecorder& trace,
                          WallTime epoch) {
  // Captured before the move: the envelope is gone once delivered, but
  // the trace event still needs its provenance.
  const Pe msg_src = env.src_pe;
  const EntryId entry = env.entry;
  const MsgKind kind = env.kind;
  const WallTime t0 = std::chrono::steady_clock::now();
  const sim::TimeNs charged = rt.deliver(std::move(env));
  if (emulate_charge && charged > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(charged));
  }
  const WallTime t1 = std::chrono::steady_clock::now();
  trace.record(static_cast<std::size_t>(pe),
               TraceEvent{pe, wall_since(epoch, t0), wall_since(epoch, t1),
                          msg_src, entry, kind});
  return wall_since(t0, t1);
}

}  // namespace mdo::core
