#pragma once
// ParkingLot: quarantine backpressure shared by every machine backend.
// When the reliability stack quarantines a suspect peer and its buffer
// fills, the reliable device reports the peer congested; machines then
// park outbound envelopes to it here instead of handing them to the
// chain. When the congestion clears they are flushed back to the
// machine's routing path, most urgent first and FIFO within a priority.
// The lot is unbounded and never sheds: every parked envelope is an
// application message owed exactly-once delivery, and it stays in the
// machine's quiescence accounting until it is flushed.
//
// Thread-safe: any thread may park, flip a flag, or flush. The congested
// flags mirror the reliable device's state (set from its congestion
// callback), so hot routing paths read an atomic instead of device
// internals.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "core/envelope.hpp"

namespace mdo::core {

class ParkingLot {
 public:
  /// Where a flushed envelope goes: the machine's routing path minus any
  /// send accounting (it was counted when first sent). It re-parks the
  /// envelope if the peer is congested again.
  using Resend = std::function<void(Envelope&&)>;

  explicit ParkingLot(std::size_t peers);

  void set_resend(Resend fn) { resend_ = std::move(fn); }

  void set_congested(Pe peer, bool congested) {
    congested_[static_cast<std::size_t>(peer)].store(congested);
  }
  bool congested(Pe peer) const {
    return congested_[static_cast<std::size_t>(peer)].load();
  }

  /// Hold `env` until its destination's congestion clears. Flushes at
  /// once if the flag cleared meanwhile: the clearing side stores the
  /// flag before it flushes, so either that flush sees this envelope or
  /// this call does.
  void park(Envelope&& env);

  /// Resend everything parked toward `dst`, most urgent first, FIFO
  /// within a priority.
  void flush(Pe dst);

  struct Counts {
    std::size_t held = 0;       ///< envelopes parked now
    std::uint64_t parked = 0;   ///< park calls (a re-park counts again)
    std::uint64_t resumed = 0;  ///< envelopes handed back by flush()
  };
  /// The counters, read together so they agree with each other.
  Counts counts() const;

 private:
  std::vector<std::atomic<bool>> congested_;
  Resend resend_;
  mutable std::mutex mutex_;
  std::vector<std::vector<Envelope>> held_;  ///< per destination PE
  Counts counts_;
};

}  // namespace mdo::core
