#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace wanbench {

namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

CheckResult check_bitwise(const std::string& name,
                          const std::vector<double>& got,
                          const std::vector<double>& want) {
  CheckResult r{name, true, ""};
  if (got.size() != want.size()) {
    r.ok = false;
    r.detail = "size " + std::to_string(got.size()) + " vs " +
               std::to_string(want.size());
    return r;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) {
      r.ok = false;
      r.detail = "element " + std::to_string(i) + ": " + fmt(got[i]) +
                 " vs " + fmt(want[i]);
      return r;
    }
  }
  return r;
}

CheckResult check_equal(const std::string& name, std::uint64_t got,
                        std::uint64_t want) {
  CheckResult r{name, got == want, ""};
  if (!r.ok) r.detail = std::to_string(got) + " vs " + std::to_string(want);
  return r;
}

std::uint64_t stencil_expected_msgs(std::int32_t k, std::int64_t steps,
                                    std::int32_t pes) {
  const auto kk = static_cast<std::uint64_t>(k);
  return 4 * kk * (kk - 1) * static_cast<std::uint64_t>(steps) +
         static_cast<std::uint64_t>(pes);
}

std::vector<double> cmfd_reference_slots(const mdo::apps::cmfd::Params& p,
                                         const mdo::apps::cmfd::Reference& ref) {
  const std::int32_t n = p.lattice;
  const std::int32_t b = p.block();
  const std::int32_t edge = p.k();
  const auto tiles = static_cast<std::size_t>(p.tiles);
  std::vector<double> slots(2 * tiles, 0.0);
  for (std::int32_t ty = 0; ty < edge; ++ty) {
    for (std::int32_t tx = 0; tx < edge; ++tx) {
      const auto t = static_cast<std::size_t>(ty * edge + tx);
      double sum = 0.0;
      for (std::int32_t i = 0; i < b; ++i)
        for (std::int32_t j = 0; j < b; ++j)
          sum += ref.flux[static_cast<std::size_t>(ty * b + i) * n + tx * b + j];
      slots[t] = ref.k_eff;
      slots[tiles + t] = sum;
    }
  }
  return slots;
}

// -- LeanMD -------------------------------------------------------------------

namespace {

bool periodic_neighbours(const mdo::core::Index& a, const mdo::core::Index& b,
                         std::int32_t d) {
  auto near = [d](std::int32_t u, std::int32_t w) {
    const std::int32_t delta = ((u - w) % d + d) % d;
    return delta == 0 || delta == 1 || delta == d - 1;
  };
  return near(a.x, b.x) && near(a.y, b.y) && near(a.z, b.z);
}

/// Minimum-image separation of atom i of `a` and atom j of `b`.
double separation(const mdo::apps::leanmd::Params& p, const MdCell& a,
                  std::size_t i, const MdCell& b, std::size_t j,
                  double d[3]) {
  const double box = p.box();
  for (std::size_t c = 0; c < 3; ++c) {
    const double delta = a.x[3 * i + c] - b.x[3 * j + c];
    d[c] = delta - box * std::round(delta / box);
  }
  return std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
}

/// Visit every interacting atom pair once: same cell (i < j) or two
/// 26-neighbouring cells. fn(cell_a, i, cell_b, j).
template <class Fn>
void for_each_pair(const mdo::apps::leanmd::Params& p,
                   const std::vector<MdCell>& cells, Fn&& fn) {
  for (std::size_t ca = 0; ca < cells.size(); ++ca) {
    const std::size_t na = cells[ca].x.size() / 3;
    for (std::size_t i = 0; i < na; ++i)
      for (std::size_t j = i + 1; j < na; ++j) fn(ca, i, ca, j);
    for (std::size_t cb = ca + 1; cb < cells.size(); ++cb) {
      if (!periodic_neighbours(cells[ca].index, cells[cb].index,
                               p.cells_per_dim))
        continue;
      const std::size_t nb = cells[cb].x.size() / 3;
      for (std::size_t i = 0; i < na; ++i)
        for (std::size_t j = 0; j < nb; ++j) fn(ca, i, cb, j);
    }
  }
}

}  // namespace

MdState md_state(const mdo::apps::leanmd::Params& p,
                 const std::vector<MdCell>& cells) {
  MdState s;
  std::vector<std::vector<double>> force(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c)
    force[c].assign(cells[c].x.size(), 0.0);

  const double rc6 = std::pow(p.sigma / p.cutoff, 6);
  const double v_cut = 4.0 * p.epsilon * (rc6 * rc6 - rc6);
  for_each_pair(p, cells, [&](std::size_t ca, std::size_t i, std::size_t cb,
                              std::size_t j) {
    double d[3];
    const double r = separation(p, cells[ca], i, cells[cb], j, d);
    if (r == 0.0 || r >= p.cutoff) return;
    const double r2 = r * r;
    const double s6 = std::pow(p.sigma * p.sigma / r2, 3);
    s.potential += 4.0 * p.epsilon * (s6 * s6 - s6) - v_cut;
    const double scale = 24.0 * p.epsilon * (2.0 * s6 * s6 - s6) / r2;
    double mag = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      const double f = scale * d[c];
      force[ca][3 * i + c] += f;
      force[cb][3 * j + c] -= f;
      mag += f * f;
    }
    s.pair_force_abs_sum += std::sqrt(mag);
  });

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const MdCell& cell = cells[c];
    for (std::size_t a = 0; a + 2 < cell.v.size(); a += 3) {
      double v2 = 0.0;
      for (std::size_t k = 0; k < 3; ++k) {
        const double v = cell.v[a + k];
        s.momentum[k] += v;
        v2 += v * v;
        s.force_sq_sum += force[c][a + k] * force[c][a + k];
      }
      s.kinetic += 0.5 * v2;
      s.speed_abs_sum += std::sqrt(v2);
    }
  }
  return s;
}

double md_energy_bound(const mdo::apps::leanmd::Params& p,
                       double max_force_sq_sum) {
  return p.dt * p.dt * max_force_sq_sum;
}

double md_momentum_bound(const mdo::apps::leanmd::Params& p,
                         const MdState& start, std::int64_t steps) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double per_step =
      64.0 * kEps * (p.dt * 2.0 * start.pair_force_abs_sum) +
      2.0 * kEps * start.speed_abs_sum;
  return per_step * static_cast<double>(steps);
}

CheckResult check_steps_reached(const std::vector<MdCell>& cells,
                                std::int32_t target) {
  CheckResult r{"leanmd.cells_at_target", true, ""};
  for (const MdCell& c : cells) {
    if (c.steps_done != target) {
      r.ok = false;
      r.detail = "cell (" + std::to_string(c.index.x) + "," +
                 std::to_string(c.index.y) + "," + std::to_string(c.index.z) +
                 ") at step " + std::to_string(c.steps_done) + " of " +
                 std::to_string(target);
      return r;
    }
  }
  if (cells.empty()) {
    r.ok = false;
    r.detail = "no cells read";
  }
  return r;
}

CheckResult check_momentum(const std::array<double, 3>& before,
                           const std::array<double, 3>& after, double bound) {
  CheckResult r{"leanmd.momentum_conserved", true, ""};
  double worst = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    const double change = std::abs(after[k] - before[k]);
    worst = std::max(worst, change);
    if (!(change <= bound)) r.ok = false;
  }
  r.detail = "max |dP| " + fmt(worst) + (r.ok ? " <= " : " > ") + "bound " +
             fmt(bound);
  return r;
}

CheckResult check_energy_drift(const std::vector<double>& energies,
                               double bound) {
  CheckResult r{"leanmd.energy_drift", true, ""};
  if (energies.size() < 2) {
    r.ok = false;
    r.detail = "fewer than two energy samples";
    return r;
  }
  double worst = 0.0;
  for (std::size_t t = 1; t < energies.size(); ++t) {
    const double drift = std::abs(energies[t] - energies[0]);
    worst = std::max(worst, drift);
    if (!(drift <= bound)) r.ok = false;
  }
  r.detail = "max |dE| " + fmt(worst) + (r.ok ? " <= " : " > ") + "bound " +
             fmt(bound) + " (E0 " + fmt(energies[0]) + ")";
  return r;
}

}  // namespace wanbench
