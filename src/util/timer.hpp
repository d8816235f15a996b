#pragma once
// Wall-clock stopwatch (real time; virtual time lives in sim::Engine).

#include <chrono>
#include <cstdint>

namespace mdo {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double elapsed_ms() const { return static_cast<double>(elapsed_ns()) / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mdo
