// Scenario sizing over heterogeneous N-cluster link tables. Every
// latency-derived knob — heartbeat timeout, retransmission timeout,
// coalescing flush window — must follow the *worst* link in the table
// (links may differ by 10x in a real grid), regardless of builder call
// order. The serialized topology is a stable, diffable artifact: a
// checked-in golden file plus a parse round-trip lock the format.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "grid/scenario.hpp"

namespace {

using namespace mdo;
using grid::Scenario;

// ---------------------------------------------------------------------------
// Sizing from the per-link table

TEST(ScenarioSizing, TwoClusterSizingUnchangedFromSingleKnob) {
  // Backward compatibility: with two clusters the table's worst link IS
  // the classic one-way knob, so every derived value matches the
  // pre-table formulas bit for bit.
  const sim::TimeNs one_way = sim::milliseconds(16.0);
  Scenario s = Scenario::artificial(8, one_way).with_loss(0.01).with_crashes();
  EXPECT_EQ(s.max_one_way(), one_way);
  EXPECT_EQ(s.heartbeat.timeout, 2 * one_way + 4 * s.heartbeat.period);
  EXPECT_EQ(s.reliable.rto_initial, 2 * one_way + sim::milliseconds(1.0));
}

TEST(ScenarioSizing, HeartbeatTimeoutFollowsWorstOfTenXLinks) {
  // A 4-site grid where one directed link is 10x the rest: the failure
  // detector must tolerate a round trip on the *slow* link, or every
  // node across it is declared dead on schedule.
  Scenario s = Scenario::artificial(8, sim::milliseconds(4.0))
                   .with_clusters(4)
                   .with_crashes()
                   .with_wan_link(0, 3, sim::milliseconds(40.0));
  EXPECT_EQ(s.max_one_way(), sim::milliseconds(40.0));
  EXPECT_EQ(s.heartbeat.timeout,
            2 * sim::milliseconds(40.0) + 4 * s.heartbeat.period);

  // Same knobs, opposite builder order: with_crashes() after the slow
  // link must land on the identical timeout (rederive is order-free).
  Scenario r = Scenario::artificial(8, sim::milliseconds(4.0))
                   .with_clusters(4)
                   .with_wan_link(0, 3, sim::milliseconds(40.0))
                   .with_crashes();
  EXPECT_EQ(r.heartbeat.timeout, s.heartbeat.timeout);
}

TEST(ScenarioSizing, RtoFollowsWorstOfTenXLinks) {
  Scenario s = Scenario::artificial(8, sim::milliseconds(2.0))
                   .with_clusters(4)
                   .with_loss(0.02)
                   .with_wan_link(2, 0, sim::milliseconds(20.0));
  EXPECT_EQ(s.reliable.rto_initial,
            2 * sim::milliseconds(20.0) + sim::milliseconds(1.0));
  // Without the slow link the synthesized worst pair is distance 3:
  // base + base * 2 / 2 = 2 * base = 4 ms.
  Scenario fast = Scenario::artificial(8, sim::milliseconds(2.0))
                      .with_clusters(4)
                      .with_loss(0.02);
  EXPECT_EQ(fast.max_one_way(), sim::milliseconds(4.0));
  EXPECT_EQ(fast.reliable.rto_initial,
            2 * sim::milliseconds(4.0) + sim::milliseconds(1.0));
}

TEST(ScenarioSizing, CoalesceWindowScalesWithWorstLinkAndClamps) {
  // In-range: an eighth of the worst one-way latency.
  Scenario mid = Scenario::artificial(8, sim::milliseconds(2.0))
                     .with_clusters(4)
                     .with_coalescing()
                     .with_wan_link(0, 1, sim::milliseconds(4.0));
  EXPECT_EQ(mid.coalesce.flush_timeout, sim::microseconds(500.0));
  // A 10x slower grid hits the 1 ms ceiling: bundling must not hold
  // packets for multiple milliseconds no matter how slow the WAN is.
  Scenario slow = Scenario::artificial(8, sim::milliseconds(2.0))
                      .with_clusters(4)
                      .with_coalescing()
                      .with_wan_link(0, 1, sim::milliseconds(40.0));
  EXPECT_EQ(slow.coalesce.flush_timeout, sim::milliseconds(1.0));
  // A fast SAN-class "grid" hits the 100 us floor.
  Scenario fast =
      Scenario::artificial(8, sim::microseconds(50.0)).with_coalescing();
  EXPECT_EQ(fast.coalesce.flush_timeout, sim::microseconds(100.0));
}

TEST(ScenarioSizing, FlushWindowStaysUnderHalfHeartbeatPeriod) {
  // Both knobs on, slow link last: the rederived flush window must still
  // respect the detection-window clamp.
  Scenario s = Scenario::artificial(8, sim::milliseconds(2.0))
                   .with_clusters(4)
                   .with_coalescing()
                   .with_crashes()
                   .with_wan_link(0, 3, sim::milliseconds(40.0));
  EXPECT_LE(s.coalesce.flush_timeout, s.heartbeat.period / 2);
  EXPECT_EQ(s.heartbeat.timeout,
            2 * sim::milliseconds(40.0) + 4 * s.heartbeat.period);
}

TEST(ScenarioSizing, WithClustersRederivesEverything) {
  // Growing the grid from 2 to 8 sites stretches the synthesized worst
  // link (distance 7 at 50% of base per hop = 4x base), and every knob
  // set *before* the cluster count follows it.
  Scenario s = Scenario::artificial(16, sim::milliseconds(2.0))
                   .with_loss(0.01)
                   .with_crashes()
                   .with_coalescing()
                   .with_clusters(8);
  EXPECT_EQ(s.max_one_way(), sim::milliseconds(8.0));
  EXPECT_EQ(s.reliable.rto_initial,
            2 * sim::milliseconds(8.0) + sim::milliseconds(1.0));
  EXPECT_EQ(s.heartbeat.timeout,
            2 * sim::milliseconds(8.0) + 4 * s.heartbeat.period);
  EXPECT_EQ(s.coalesce.flush_timeout,
            std::min<sim::TimeNs>(sim::milliseconds(1.0),
                                  s.heartbeat.period / 2));
}

// ---------------------------------------------------------------------------
// Topology serialization golden

std::string golden_path() {
  return std::string(MDO_GOLDEN_DIR) + "/topology_real_grid_16x4.json";
}

TEST(TopologyGolden, ToJsonMatchesGoldenFile) {
  const net::Topology topo = Scenario::real_grid(16, 4).topology();
  const std::string text = topo.to_json().dump(2) + "\n";

  // Golden: the serialized form is a stable artifact. Regenerate with
  //   MDO_UPDATE_GOLDEN=1 ctest -R TopologyGolden
  // and review the diff like any other source change.
  if (std::getenv("MDO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.is_open()) << golden_path();
    out << text;
    GTEST_SKIP() << "golden file rewritten: " << golden_path();
  }
  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open()) << golden_path();
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << "topology JSON drifted from the golden file; if intentional, "
         "regenerate with MDO_UPDATE_GOLDEN=1";
}

}  // namespace
