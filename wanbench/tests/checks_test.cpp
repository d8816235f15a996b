// The benchmark's output checks must be able to fail: each test feeds a
// checker a result perturbed by the smallest amount that is wrong and
// expects the check to report it.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/cmfd/cmfd.hpp"
#include "apps/stencil/stencil.hpp"
#include "checks.hpp"

namespace {

using namespace wanbench;

TEST(WanbenchChecks, MeshOffByOneUlpFails) {
  mdo::apps::stencil::Params p;
  p.mesh = 32;
  p.objects = 16;
  const std::vector<double> ref = mdo::apps::stencil::sequential_reference(p, 3);
  std::vector<double> got = ref;
  EXPECT_TRUE(check_bitwise("mesh", got, ref).ok);
  const std::size_t cell = 5 * 32 + 7;
  got[cell] = std::nextafter(got[cell], 2.0);
  const CheckResult r = check_bitwise("mesh", got, ref);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("element 167"), std::string::npos) << r.detail;
}

TEST(WanbenchChecks, KeffOffByOneUlpFails) {
  mdo::apps::cmfd::Params p;
  p.lattice = 32;
  p.tiles = 16;
  const auto ref = mdo::apps::cmfd::sequential_reference(p, 2);
  const std::vector<double> want = cmfd_reference_slots(p, ref);
  ASSERT_EQ(want.size(), 32u);
  std::vector<double> got = want;
  EXPECT_TRUE(check_bitwise("cmfd", got, want).ok);
  got[3] = std::nextafter(got[3], 0.0);  // one tile's k_eff copy
  EXPECT_FALSE(check_bitwise("cmfd", got, want).ok);
}

TEST(WanbenchChecks, MissingMessageFails) {
  // 8×8 objects on 2 PEs, 10 steps: 4·8·7·10 ghosts + 2 broadcast copies.
  const std::uint64_t want = stencil_expected_msgs(8, 10, 2);
  EXPECT_EQ(want, 2242u);
  EXPECT_TRUE(check_equal("msgs", want, want).ok);
  EXPECT_FALSE(check_equal("msgs", want - 1, want).ok);
  // sent == executed + dropped with one message lost in between.
  EXPECT_FALSE(check_equal("sent", 1000, 999 + 0).ok);
}

/// Two neighbouring cells of a 3×3×3 box with a few atoms each.
std::vector<MdCell> tiny_cells(const mdo::apps::leanmd::Params& p) {
  std::vector<MdCell> cells;
  for (std::int32_t x = 0; x < 2; ++x) {
    MdCell c;
    c.index = mdo::core::Index(x, 0, 0);
    c.steps_done = 4;
    for (int a = 0; a < 3; ++a) {
      c.x.insert(c.x.end(), {x * p.cell_size + 0.2 + 0.3 * a, 0.5, 0.5});
      c.v.insert(c.v.end(), {0.01 * a, -0.02, 0.005 * x});
    }
    cells.push_back(std::move(c));
  }
  return cells;
}

TEST(WanbenchChecks, EnergyDriftBeyondBoundFails) {
  mdo::apps::leanmd::Params p;
  p.cells_per_dim = 3;
  const auto cells = tiny_cells(p);
  const MdState start = md_state(p, cells);
  const double bound = md_energy_bound(p, start.force_sq_sum);
  ASSERT_GT(bound, 0.0);
  const double e0 = start.total();
  EXPECT_TRUE(check_energy_drift({e0, e0 + 0.5 * bound, e0 - 0.9 * bound}, bound).ok);
  EXPECT_FALSE(
      check_energy_drift({e0, e0 + 0.5 * bound, e0 + 1.01 * bound}, bound).ok);
  EXPECT_FALSE(check_energy_drift({e0}, bound).ok);
}

TEST(WanbenchChecks, MomentumAndStepChecksFail) {
  mdo::apps::leanmd::Params p;
  p.cells_per_dim = 3;
  auto cells = tiny_cells(p);
  const MdState s = md_state(p, cells);
  const double bound = md_momentum_bound(p, s, 10);
  ASSERT_GT(bound, 0.0);
  auto moved = s.momentum;
  EXPECT_TRUE(check_momentum(s.momentum, moved, bound).ok);
  moved[1] += 2.0 * bound;
  EXPECT_FALSE(check_momentum(s.momentum, moved, bound).ok);

  EXPECT_TRUE(check_steps_reached(cells, 4).ok);
  cells[1].steps_done = 3;
  EXPECT_FALSE(check_steps_reached(cells, 4).ok);
}

TEST(WanbenchChecks, HamiltonianMatchesHandComputedPair) {
  // Two atoms 0.3 apart in one cell: V = 4ε((σ/r)^12 − (σ/r)^6) − V(r_c).
  mdo::apps::leanmd::Params p;
  p.cells_per_dim = 3;
  MdCell c;
  c.index = mdo::core::Index(0, 0, 0);
  c.x = {0.1, 0.5, 0.5, 0.4, 0.5, 0.5};
  c.v = {1.0, 0.0, 0.0, -1.0, 0.0, 0.0};
  const MdState s = md_state(p, {c});
  const double sr6 = std::pow(p.sigma / 0.3, 6);
  const double rc6 = std::pow(p.sigma / p.cutoff, 6);
  EXPECT_NEAR(s.potential,
              4.0 * p.epsilon * (sr6 * sr6 - sr6 - (rc6 * rc6 - rc6)), 1e-12);
  EXPECT_DOUBLE_EQ(s.kinetic, 1.0);
  EXPECT_DOUBLE_EQ(s.momentum[0], 0.0);
}

}  // namespace
