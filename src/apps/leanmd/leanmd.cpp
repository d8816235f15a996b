#include "apps/leanmd/leanmd.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "apps/phase.hpp"
#include "core/mapping.hpp"
#include "util/assert.hpp"

namespace mdo::apps::leanmd {

std::int32_t flat_cell_id(const core::Index& cell, std::int32_t d) {
  return (cell.z * d + cell.y) * d + cell.x;
}

// -- PairTable ------------------------------------------------------------------

PairTable PairTable::build(std::int32_t d) {
  MDO_CHECK(d >= 1);
  PairTable table;
  const std::int32_t n = d * d * d;
  table.pairs_of_cell.assign(static_cast<std::size_t>(n), {});

  auto push_pair = [&](const core::Index& a, const core::Index& b) {
    auto id = static_cast<std::int32_t>(table.pairs.size());
    table.pairs.push_back(Entry{a, b});
    table.pairs_of_cell[static_cast<std::size_t>(flat_cell_id(a, d))].push_back(id);
    if (!(a == b))
      table.pairs_of_cell[static_cast<std::size_t>(flat_cell_id(b, d))].push_back(id);
  };

  // Self pairs first: pair id == flat cell id.
  for (std::int32_t z = 0; z < d; ++z)
    for (std::int32_t y = 0; y < d; ++y)
      for (std::int32_t x = 0; x < d; ++x)
        push_pair(core::Index(x, y, z), core::Index(x, y, z));

  // Cross pairs over the periodic 26-neighborhood, deduplicated (wraps
  // can alias for d <= 2).
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  auto wrap = [d](std::int32_t v) { return ((v % d) + d) % d; };
  for (std::int32_t z = 0; z < d; ++z) {
    for (std::int32_t y = 0; y < d; ++y) {
      for (std::int32_t x = 0; x < d; ++x) {
        core::Index a(x, y, z);
        for (std::int32_t dz = -1; dz <= 1; ++dz) {
          for (std::int32_t dy = -1; dy <= 1; ++dy) {
            for (std::int32_t dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              core::Index b(wrap(x + dx), wrap(y + dy), wrap(z + dz));
              std::int32_t fa = flat_cell_id(a, d);
              std::int32_t fb = flat_cell_id(b, d);
              if (fa == fb) continue;  // wrap aliased to self (d <= 2)
              auto key = std::minmax(fa, fb);
              if (!seen.insert({key.first, key.second}).second) continue;
              push_pair(fa < fb ? a : b, fa < fb ? b : a);
            }
          }
        }
      }
    }
  }
  return table;
}

// -- physics kernel --------------------------------------------------------------

namespace {

/// Accumulate Lennard-Jones forces between two atom sets (or within one
/// when self) with minimum-image periodic distances. Returns the summed
/// potential energy.
double lj_interact(const Params& p, const std::vector<double>& xa,
                   const std::vector<double>& xb, bool self,
                   std::vector<double>& fa, std::vector<double>& fb) {
  const double box = p.box();
  const double rc2 = p.cutoff * p.cutoff;
  const double sigma2 = p.sigma * p.sigma;
  const std::size_t na = xa.size() / 3;
  const std::size_t nb = xb.size() / 3;
  double potential = 0.0;

  auto min_image = [box](double delta) {
    return delta - box * std::nearbyint(delta / box);
  };

  for (std::size_t i = 0; i < na; ++i) {
    std::size_t j_begin = self ? i + 1 : 0;
    for (std::size_t j = j_begin; j < nb; ++j) {
      double dx = min_image(xa[3 * i] - xb[3 * j]);
      double dy = min_image(xa[3 * i + 1] - xb[3 * j + 1]);
      double dz = min_image(xa[3 * i + 2] - xb[3 * j + 2]);
      double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= rc2 || r2 == 0.0) continue;
      double sr2 = sigma2 / r2;
      double sr6 = sr2 * sr2 * sr2;
      double sr12 = sr6 * sr6;
      potential += 4.0 * p.epsilon * (sr12 - sr6);
      double fscale = 24.0 * p.epsilon * (2.0 * sr12 - sr6) / r2;
      double fx = fscale * dx, fy = fscale * dy, fz = fscale * dz;
      fa[3 * i] += fx;
      fa[3 * i + 1] += fy;
      fa[3 * i + 2] += fz;
      fb[3 * j] -= fx;
      fb[3 * j + 1] -= fy;
      fb[3 * j + 2] -= fz;
    }
  }
  return potential;
}

}  // namespace

// -- Cell ---------------------------------------------------------------------------

void Cell::configure(const Params& params, std::vector<core::Index> my_pairs,
                     core::ArrayId pair_array,
                     core::ReductionClientId energy_client) {
  params_ = params;
  my_pairs_ = std::move(my_pairs);
  pair_array_ = pair_array;
  energy_client_ = energy_client;

  const auto n3 = static_cast<std::size_t>(params_.atoms_per_cell) * 3;
  x_.assign(n3, 0.0);
  v_.assign(n3, 0.0);
  f_.assign(n3, 0.0);
  f_acc_.assign(n3, 0.0);

  if (!params_.real_compute) return;

  // Deterministic jittered lattice inside this cell's box; velocities
  // drawn isotropically and recentred so the cell has zero net momentum.
  const std::int32_t d = params_.cells_per_dim;
  SplitMix64 rng(params_.seed ^
                 (0x9e3779b97f4a7c15ULL *
                  static_cast<std::uint64_t>(flat_cell_id(index(), d) + 1)));
  const std::int32_t per_edge = static_cast<std::int32_t>(
      std::ceil(std::cbrt(static_cast<double>(params_.atoms_per_cell))));
  const double spacing = params_.cell_size / per_edge;
  const double ox = index().x * params_.cell_size;
  const double oy = index().y * params_.cell_size;
  const double oz = index().z * params_.cell_size;
  for (std::int32_t a = 0; a < params_.atoms_per_cell; ++a) {
    std::int32_t gx = a % per_edge;
    std::int32_t gy = (a / per_edge) % per_edge;
    std::int32_t gz = a / (per_edge * per_edge);
    double jitter = 0.05 * spacing;
    x_[3 * static_cast<std::size_t>(a)] =
        ox + (gx + 0.5) * spacing + rng.uniform(-jitter, jitter);
    x_[3 * static_cast<std::size_t>(a) + 1] =
        oy + (gy + 0.5) * spacing + rng.uniform(-jitter, jitter);
    x_[3 * static_cast<std::size_t>(a) + 2] =
        oz + (gz + 0.5) * spacing + rng.uniform(-jitter, jitter);
    for (int c = 0; c < 3; ++c)
      v_[3 * static_cast<std::size_t>(a) + static_cast<std::size_t>(c)] =
          rng.uniform(-params_.initial_speed, params_.initial_speed);
  }
  double mean[3] = {0, 0, 0};
  for (std::size_t a = 0; a < static_cast<std::size_t>(params_.atoms_per_cell); ++a)
    for (std::size_t c = 0; c < 3; ++c) mean[c] += v_[3 * a + c];
  for (std::size_t c = 0; c < 3; ++c)
    mean[c] /= static_cast<double>(params_.atoms_per_cell);
  for (std::size_t a = 0; a < static_cast<std::size_t>(params_.atoms_per_cell); ++a)
    for (std::size_t c = 0; c < 3; ++c) v_[3 * a + c] -= mean[c];
}

void Cell::resume_steps(std::int32_t more_steps) {
  MDO_CHECK(more_steps > 0);
  const bool was_idle = step_ >= target_steps_;
  target_steps_ += more_steps;
  if (was_idle) drift_and_multicast();
}

void Cell::drift_and_multicast() {
  charge(static_cast<sim::TimeNs>(params_.integrate_ns_per_atom *
                                  params_.atoms_per_cell));
  if (params_.real_compute) {
    const double dt = params_.dt;
    const double box = params_.box();
    for (std::size_t i = 0; i < x_.size(); ++i) {
      x_[i] += v_[i] * dt + 0.5 * f_[i] * dt * dt;
      x_[i] -= box * std::floor(x_[i] / box);  // wrap into [0, box)
    }
  }
  const std::int32_t me = flat_cell_id(index(), params_.cells_per_dim);
  runtime()
      .proxy<CellPair>(pair_array_)
      .multicast<&CellPair::coords>(my_pairs_, step_, me, x_);
}

void Cell::forces(std::int32_t step, std::vector<double> f, double potential) {
  MDO_CHECK_MSG(step == step_, "force message for the wrong step");
  if (params_.real_compute) {
    MDO_CHECK(f.size() == f_acc_.size());
    for (std::size_t i = 0; i < f.size(); ++i) f_acc_[i] += f[i];
  }
  potential_sum_ += potential;
  ++arrived_;
  if (arrived_ < static_cast<std::int32_t>(my_pairs_.size())) return;

  kick(f_acc_);
  if (params_.monitor_energy) {
    runtime().contribute(*this, {kinetic_energy(), potential_sum_},
                         core::ReduceOp::kSum, energy_client_);
  }
  ++step_;
  arrived_ = 0;
  potential_sum_ = 0.0;
  std::fill(f_acc_.begin(), f_acc_.end(), 0.0);
  if (step_ < target_steps_) drift_and_multicast();
}

void Cell::kick(const std::vector<double>& f_new) {
  if (params_.real_compute) {
    const double dt = params_.dt;
    for (std::size_t i = 0; i < v_.size(); ++i)
      v_[i] += 0.5 * (f_[i] + f_new[i]) * dt;
    f_ = f_new;
  }
}

double Cell::kinetic_energy() const {
  double ke = 0.0;
  for (double v : v_) ke += v * v;
  return 0.5 * ke;
}

void Cell::pup(Pup& p) {
  Chare::pup(p);
  p | params_ | my_pairs_ | pair_array_ | energy_client_ | target_steps_ |
      step_ | arrived_ | potential_sum_ | x_ | v_ | f_ | f_acc_;
}

// -- CellPair -------------------------------------------------------------------------

void CellPair::configure(const Params& params, const core::Index& a,
                         const core::Index& b, core::ArrayId cell_array) {
  params_ = params;
  a_ = a;
  b_ = b;
  cell_array_ = cell_array;
}

void CellPair::coords(std::int32_t step, std::int32_t from_flat_cell,
                      std::vector<double> xyz) {
  const std::int32_t d = params_.cells_per_dim;
  std::size_t slot;
  if (from_flat_cell == flat_cell_id(a_, d)) {
    slot = 0;
  } else {
    MDO_CHECK_MSG(from_flat_cell == flat_cell_id(b_, d),
                  "coords from a cell this pair does not serve");
    slot = 1;
  }
  MDO_CHECK(!have_[slot]);
  xyz_[slot] = std::move(xyz);
  have_[slot] = true;

  const bool complete = is_self() ? have_[0] : (have_[0] && have_[1]);
  if (complete) compute_and_reply(step);
}

void CellPair::compute_and_reply(std::int32_t step) {
  const auto na = xyz_[0].size() / 3;
  const auto nb = is_self() ? na : xyz_[1].size() / 3;

  if (params_.modeled_charge) {
    double interactions =
        is_self() ? 0.5 * static_cast<double>(na) * (static_cast<double>(na) - 1)
                  : static_cast<double>(na) * static_cast<double>(nb);
    charge(static_cast<sim::TimeNs>(interactions * params_.interaction_ns));
  }

  std::vector<double> fa(xyz_[0].size(), 0.0);
  std::vector<double> fb(is_self() ? 0 : xyz_[1].size(), 0.0);
  double potential = 0.0;
  if (params_.real_compute) {
    if (is_self()) {
      potential = lj_interact(params_, xyz_[0], xyz_[0], true, fa, fa);
    } else {
      potential = lj_interact(params_, xyz_[0], xyz_[1], false, fa, fb);
    }
  }

  auto cells = runtime().proxy<Cell>(cell_array_);
  if (is_self()) {
    cells.send<&Cell::forces>(a_, step, std::move(fa), potential);
  } else {
    cells.send<&Cell::forces>(a_, step, std::move(fa), potential * 0.5);
    cells.send<&Cell::forces>(b_, step, std::move(fb), potential * 0.5);
  }
  have_ = {false, false};
  xyz_[0].clear();
  xyz_[1].clear();
}

void CellPair::pup(Pup& p) {
  Chare::pup(p);
  p | params_ | a_ | b_ | cell_array_ | xyz_ | have_;
}

// -- LeanMdApp ------------------------------------------------------------------------

LeanMdApp::LeanMdApp(core::Runtime& rt, Params params)
    : rt_(&rt), params_(params), table_(PairTable::build(params.cells_per_dim)) {
  const std::int32_t d = params_.cells_per_dim;
  core::MapFn cell_map = core::block_map_3d(d, d, d, rt_->num_pes());

  cells_ = rt_->create_array<Cell>(
      "md_cells", core::indices_3d(d, d, d), cell_map,
      [](const core::Index&) { return std::make_unique<Cell>(); });

  // Pairs live near one of their cells, alternating to spread load.
  const PairTable& table = table_;
  core::MapFn pair_map = [&table, cell_map](const core::Index& pair) -> core::Pe {
    const auto& entry = table.pairs.at(static_cast<std::size_t>(pair.x));
    if (entry.a == entry.b || pair.x % 2 == 0) return cell_map(entry.a);
    return cell_map(entry.b);
  };
  pairs_ = rt_->create_array<CellPair>(
      "md_pairs", core::indices_1d(static_cast<std::int32_t>(table_.num_pairs())),
      pair_map, [](const core::Index&) { return std::make_unique<CellPair>(); });

  rt_->array(pairs_.id())
      .for_each([this](const core::Index& index, core::Chare& elem, core::Pe) {
        const auto& entry = table_.pairs.at(static_cast<std::size_t>(index.x));
        static_cast<CellPair&>(elem).configure(params_, entry.a, entry.b,
                                               cells_.id());
      });

  core::ReductionClientId energy_client = -1;
  if (params_.monitor_energy) {
    energy_client = cells_.reduction_client([this](const std::vector<double>& d2) {
      MDO_CHECK(d2.size() == 2);
      energy_history_.push_back({d2[0], d2[1]});
    });
  }

  rt_->array(cells_.id())
      .for_each([this, d, energy_client](const core::Index& index,
                                         core::Chare& elem, core::Pe) {
        const auto& pair_ids =
            table_.pairs_of_cell.at(static_cast<std::size_t>(flat_cell_id(index, d)));
        std::vector<core::Index> my_pairs;
        my_pairs.reserve(pair_ids.size());
        for (std::int32_t pid : pair_ids) my_pairs.emplace_back(pid);
        static_cast<Cell&>(elem).configure(params_, std::move(my_pairs),
                                           pairs_.id(), energy_client);
      });
}

LeanMdApp::PhaseResult LeanMdApp::run_steps(std::int32_t steps) {
  MDO_CHECK(steps > 0);
  Phase phase = run_phase(*rt_, phase_++, [&] {
    cells_.broadcast<&Cell::resume_steps>(steps);
  });

  PhaseResult result;
  result.steps = steps;
  result.elapsed = phase.elapsed;
  result.s_per_step = sim::to_s(result.elapsed) / steps;
  result.fabric = phase.fabric;
  result.metrics = std::move(phase.metrics);
  return result;
}

}  // namespace mdo::apps::leanmd
