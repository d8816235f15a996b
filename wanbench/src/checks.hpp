#pragma once
// Output checks of the WAN benchmark. Each one compares a run's output
// with a computation made apart from the program under test, or with a
// property the method must have; none compares with a recorded copy of
// an earlier output. They are plain functions of plain data so the
// benchmark's own tests can feed them perturbed results.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/cmfd/cmfd.hpp"
#include "apps/leanmd/leanmd.hpp"

namespace wanbench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  ///< what differed, when !ok
};

/// Bit-pattern equality of two vectors (one ulp off fails).
CheckResult check_bitwise(const std::string& name,
                          const std::vector<double>& got,
                          const std::vector<double>& want);

CheckResult check_equal(const std::string& name, std::uint64_t got,
                        std::uint64_t want);

// -- stencil ------------------------------------------------------------------

/// Entries a stencil phase executes on a k×k object grid: one ghost per
/// interior edge direction per step (4·k·(k−1)), plus the phase's
/// resume broadcast, delivered once on every PE.
std::uint64_t stencil_expected_msgs(std::int32_t k, std::int64_t steps,
                                    std::int32_t pes);

// -- CMFD ---------------------------------------------------------------------

/// The [k_eff × tiles | coarse flux per tile] slot vector CmfdApp::collect
/// returns, rebuilt from the sequential reference with the tiles' own
/// summation order (row-major within a tile, starting from 0.0).
std::vector<double> cmfd_reference_slots(const mdo::apps::cmfd::Params& p,
                                         const mdo::apps::cmfd::Reference& ref);

// -- LeanMD -------------------------------------------------------------------

/// Atoms of one cell as the host reads them after run() returns.
struct MdCell {
  mdo::core::Index index;
  std::int32_t steps_done = 0;
  std::vector<double> x, v;  ///< 3N each
};

/// Host-side evaluation of the LeanMD Hamiltonian: every atom pair in
/// the same or 26-neighbouring cells (periodic), minimum-image distance,
/// Lennard-Jones truncated at the cutoff and shifted by V(r_c). The
/// shift changes no force, so it is the energy velocity Verlet conserves
/// with the app's forces, without a jump when a pair crosses the cutoff.
/// Written apart from the app's kernel.
struct MdState {
  double kinetic = 0.0;
  double potential = 0.0;
  std::array<double, 3> momentum{};  ///< unit mass
  double force_sq_sum = 0.0;         ///< Σ_i |F_i|²
  double pair_force_abs_sum = 0.0;   ///< Σ_pairs |f_ij|
  double speed_abs_sum = 0.0;        ///< Σ_i |v_i|
  double total() const { return kinetic + potential; }
};
MdState md_state(const mdo::apps::leanmd::Params& p,
                 const std::vector<MdCell>& cells);

/// Largest |total energy change| velocity Verlet may show: its O(dt²)
/// shadow-Hamiltonian gap, taken as dt²·Σ|F|² at the stiffest sampled
/// state (twelve times the leading dt²/12·Σ|F|²/m term, unit mass).
double md_energy_bound(const mdo::apps::leanmd::Params& p,
                       double max_force_sq_sum);

/// Largest per-component |momentum change| floating-point rounding can
/// cause in `steps` velocity-Verlet steps: each step sums every pair
/// force into two accumulators (≤ 64 rounding steps deep) and updates
/// every velocity once.
double md_momentum_bound(const mdo::apps::leanmd::Params& p,
                         const MdState& start, std::int64_t steps);

CheckResult check_steps_reached(const std::vector<MdCell>& cells,
                                std::int32_t target);
CheckResult check_momentum(const std::array<double, 3>& before,
                           const std::array<double, 3>& after, double bound);
/// |E(t) − E(0)| ≤ bound for every sample of the trajectory.
CheckResult check_energy_drift(const std::vector<double>& energies,
                               double bound);

}  // namespace wanbench
