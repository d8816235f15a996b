// ParkingLot: the quarantine-backpressure buffer every machine backend
// shares. Envelopes parked toward a congested peer come back most urgent
// first, FIFO within a priority, and the stall counters balance.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/parking_lot.hpp"

namespace {

using namespace mdo;
using core::Envelope;
using core::ParkingLot;
using core::Pe;
using core::Priority;

Envelope make_env(Pe dst, Priority priority, std::uint64_t id) {
  Envelope env;
  env.src_pe = 0;
  env.dst_pe = dst;
  env.priority = priority;
  env.seq = id;
  return env;
}

struct Recorder {
  std::vector<Envelope> sent;
  ParkingLot::Resend resend() {
    return [this](Envelope&& env) { sent.push_back(std::move(env)); };
  }
};

TEST(ParkingLot, FlushesMostUrgentFirstAndFifoWithinAPriority) {
  ParkingLot lot(4);
  Recorder out;
  lot.set_resend(out.resend());
  lot.set_congested(2, true);
  const Priority prios[] = {5, 1, 5, 0, 1, 0};
  for (std::uint64_t id = 0; id < 6; ++id) {
    lot.park(make_env(2, prios[id], id));
  }
  EXPECT_TRUE(out.sent.empty());
  EXPECT_EQ(lot.counts().held, 6u);

  lot.set_congested(2, false);
  lot.flush(2);
  const std::uint64_t want[] = {3, 5, 1, 4, 0, 2};
  ASSERT_EQ(out.sent.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out.sent[i].seq, want[i]) << "position " << i;
  }
  EXPECT_EQ(lot.counts().held, 0u);
  EXPECT_EQ(lot.counts().parked, 6u);
  EXPECT_EQ(lot.counts().resumed, 6u);
}

TEST(ParkingLot, FlushTouchesOnlyItsDestination) {
  ParkingLot lot(4);
  Recorder out;
  lot.set_resend(out.resend());
  lot.set_congested(1, true);
  lot.set_congested(3, true);
  lot.park(make_env(1, 0, 10));
  lot.park(make_env(3, 0, 30));
  lot.park(make_env(1, 0, 11));

  lot.set_congested(1, false);
  lot.flush(1);
  ASSERT_EQ(out.sent.size(), 2u);
  EXPECT_EQ(out.sent[0].seq, 10u);
  EXPECT_EQ(out.sent[1].seq, 11u);
  EXPECT_EQ(lot.counts().held, 1u);
  EXPECT_TRUE(lot.congested(3));
  EXPECT_EQ(lot.counts().resumed, 2u);

  lot.flush(1);  // nothing left there: a no-op
  EXPECT_EQ(out.sent.size(), 2u);
}

TEST(ParkingLot, ParkingAfterTheFlagClearedFlushesAtOnce) {
  // The sender read `congested` before the clear, then parked: the lot
  // sees the cleared flag and flushes itself, so the envelope cannot
  // strand waiting for a flush that already ran.
  ParkingLot lot(2);
  Recorder out;
  lot.set_resend(out.resend());
  lot.park(make_env(1, 7, 1));
  ASSERT_EQ(out.sent.size(), 1u);
  EXPECT_EQ(lot.counts().held, 0u);
  EXPECT_EQ(lot.counts().parked, 1u);
  EXPECT_EQ(lot.counts().resumed, 1u);
}

TEST(ParkingLot, ReparkDuringAFlushCountsAgainAndStaysParked) {
  // Congestion re-trips mid-flush: the machine's routing path parks the
  // envelope again. Nothing is lost, and parked == resumed once it drains.
  ParkingLot lot(2);
  std::vector<Envelope> delivered;
  lot.set_resend([&](Envelope&& env) {
    if (lot.congested(env.dst_pe)) {
      lot.park(std::move(env));
    } else {
      delivered.push_back(std::move(env));
    }
  });
  lot.set_congested(1, true);
  lot.park(make_env(1, 0, 1));
  lot.park(make_env(1, 0, 2));
  lot.flush(1);  // still congested: both come straight back
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(lot.counts().held, 2u);
  EXPECT_EQ(lot.counts().parked, 4u);
  EXPECT_EQ(lot.counts().resumed, 2u);

  lot.set_congested(1, false);
  lot.flush(1);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].seq, 1u);
  EXPECT_EQ(delivered[1].seq, 2u);
  EXPECT_EQ(lot.counts().held, 0u);
  EXPECT_EQ(lot.counts().parked, lot.counts().resumed);
}

}  // namespace
