#include "core/parking_lot.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mdo::core {

ParkingLot::ParkingLot(std::size_t peers) : congested_(peers), held_(peers) {}

void ParkingLot::park(Envelope&& env) {
  const Pe dst = env.dst_pe;
  MDO_CHECK(dst >= 0 && static_cast<std::size_t>(dst) < held_.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    held_[static_cast<std::size_t>(dst)].push_back(std::move(env));
    ++counts_.held;
    ++counts_.parked;
  }
  if (!congested(dst)) flush(dst);
}

void ParkingLot::flush(Pe dst) {
  std::vector<Envelope> held;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    held.swap(held_[static_cast<std::size_t>(dst)]);
    counts_.held -= held.size();
    counts_.resumed += held.size();
  }
  // Most urgent first, so the healed link carries critical work ahead of
  // bulk; stable, so FIFO order survives within a priority.
  std::stable_sort(held.begin(), held.end(),
                   [](const Envelope& a, const Envelope& b) {
                     return a.priority < b.priority;
                   });
  for (Envelope& env : held) resend_(std::move(env));
}

ParkingLot::Counts ParkingLot::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

}  // namespace mdo::core
