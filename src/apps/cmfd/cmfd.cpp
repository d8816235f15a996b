#include "apps/cmfd/cmfd.hpp"

#include <algorithm>
#include <cmath>

#include "apps/phase.hpp"
#include "core/mapping.hpp"
#include "util/assert.hpp"

namespace mdo::apps::cmfd {

// -- Params -------------------------------------------------------------------

std::int32_t Params::k() const {
  auto root = static_cast<std::int32_t>(std::lround(std::sqrt(tiles)));
  MDO_CHECK_MSG(root * root == tiles, "tiles must be a perfect square");
  return root;
}

std::int32_t Params::block() const {
  std::int32_t edge = k();
  MDO_CHECK_MSG(lattice % edge == 0, "tile grid must divide the lattice");
  return lattice / edge;
}

double initial_source(std::int32_t x, std::int32_t y) {
  return 0.5 + static_cast<double>((x * 13 + y * 7) % 23) / 23.0;
}

double fission_xs(std::int32_t x, std::int32_t y) {
  return 0.8 + 0.4 * static_cast<double>((x * 5 + y * 3) % 17) / 17.0;
}

// -- Tile ---------------------------------------------------------------------

void Tile::configure(const Params& params, core::ReductionClientId cmfd_client,
                     core::ReductionClientId report_client) {
  params_ = params;
  cmfd_client_ = cmfd_client;
  report_client_ = report_client;
  tx_ = index().x;
  ty_ = index().y;
  const std::int32_t b = params_.block();
  src_.resize(static_cast<std::size_t>(b) * b);
  for (std::int32_t i = 0; i < b; ++i) {
    for (std::int32_t j = 0; j < b; ++j) {
      src_[static_cast<std::size_t>(i) * b + j] =
          initial_source(tx_ * b + j, ty_ * b + i);
    }
  }
}

bool Tile::has_upstream(std::int32_t q, std::int32_t axis) const {
  const std::int32_t edge = params_.k();
  if (axis == 0) return sign_x(q) > 0 ? tx_ > 0 : tx_ < edge - 1;
  return sign_y(q) > 0 ? ty_ > 0 : ty_ < edge - 1;
}

bool Tile::has_downstream(std::int32_t q, std::int32_t axis) const {
  const std::int32_t edge = params_.k();
  if (axis == 0) return sign_x(q) > 0 ? tx_ < edge - 1 : tx_ > 0;
  return sign_y(q) > 0 ? ty_ < edge - 1 : ty_ > 0;
}

void Tile::start_iteration() {
  const auto b = static_cast<std::size_t>(params_.block());
  got_x_.fill(false);
  got_y_.fill(false);
  swept_.fill(false);
  for (std::int32_t q = 0; q < 4; ++q) {
    if (!has_upstream(q, 0)) {
      influx_x_[static_cast<std::size_t>(q)].assign(b, kBoundaryFlux);
      got_x_[static_cast<std::size_t>(q)] = true;
    }
    if (!has_upstream(q, 1)) {
      influx_y_[static_cast<std::size_t>(q)].assign(b, kBoundaryFlux);
      got_y_[static_cast<std::size_t>(q)] = true;
    }
    // Adopt edges that arrived while this tile was still a reduction
    // behind its neighbors.
    for (std::int32_t axis = 0; axis < 2; ++axis) {
      auto it = early_.find({outer_, q * 2 + axis});
      if (it == early_.end()) continue;
      auto& in = axis == 0 ? influx_x_ : influx_y_;
      auto& got = axis == 0 ? got_x_ : got_y_;
      MDO_CHECK(!got[static_cast<std::size_t>(q)]);
      in[static_cast<std::size_t>(q)] = std::move(it->second);
      got[static_cast<std::size_t>(q)] = true;
      early_.erase(it);
    }
  }
  for (std::int32_t q = 0; q < 4; ++q) maybe_sweep(q);
}

void Tile::influx(std::int32_t q, std::int32_t axis, std::int32_t iter,
                  std::vector<double> edge) {
  MDO_CHECK(q >= 0 && q < 4 && (axis == 0 || axis == 1));
  if (iter != outer_ || outer_ >= target_iters_) {
    // Either the sender is an iteration ahead (it cleared its CMFD
    // broadcast before this tile did), or this tile has not seen its
    // resume_iters broadcast yet — broadcast-vs-send delivery order
    // across PEs is unordered. Hold the edge; start_iteration adopts it.
    MDO_CHECK_MSG(iter >= outer_, "influx from the past");
    early_[{iter, q * 2 + axis}] = std::move(edge);
    return;
  }
  auto& in = axis == 0 ? influx_x_ : influx_y_;
  auto& got = axis == 0 ? got_x_ : got_y_;
  MDO_CHECK_MSG(!got[static_cast<std::size_t>(q)],
                "duplicate influx for this iteration");
  in[static_cast<std::size_t>(q)] = std::move(edge);
  got[static_cast<std::size_t>(q)] = true;
  maybe_sweep(q);
}

void Tile::maybe_sweep(std::int32_t q) {
  const auto uq = static_cast<std::size_t>(q);
  if (swept_[uq] || !got_x_[uq] || !got_y_[uq]) return;
  sweep_quadrant(q);
  send_egress(q);
  swept_[uq] = true;
  if (swept_[0] && swept_[1] && swept_[2] && swept_[3]) finish_iteration();
}

void Tile::sweep_quadrant(std::int32_t q) {
  const std::int32_t b = params_.block();
  const std::int32_t sx = sign_x(q);
  const std::int32_t sy = sign_y(q);
  const std::int32_t j0 = sx > 0 ? 0 : b - 1;
  const std::int32_t i0 = sy > 0 ? 0 : b - 1;
  const auto uq = static_cast<std::size_t>(q);
  auto& psi = psi_[uq];
  psi.resize(static_cast<std::size_t>(b) * b);
  const auto& inx = influx_x_[uq];  // per row: entering the upstream x edge
  const auto& iny = influx_y_[uq];  // per column: entering the upstream y edge
  for (std::int32_t ii = 0; ii < b; ++ii) {
    const std::int32_t i = sy > 0 ? ii : b - 1 - ii;
    for (std::int32_t jj = 0; jj < b; ++jj) {
      const std::int32_t j = sx > 0 ? jj : b - 1 - jj;
      const std::size_t idx = static_cast<std::size_t>(i) * b + j;
      const double in_x =
          j == j0 ? inx[static_cast<std::size_t>(i)]
                  : psi[static_cast<std::size_t>(i) * b + (j - sx)];
      const double in_y =
          i == i0 ? iny[static_cast<std::size_t>(j)]
                  : psi[static_cast<std::size_t>(i - sy) * b + j];
      psi[idx] = kAxial * in_x + kLateral * in_y + kSource * src_[idx];
    }
  }
  if (params_.modeled_charge) {
    charge(static_cast<sim::TimeNs>(static_cast<double>(b) * b *
                                    params_.ns_per_cell));
  }
}

void Tile::send_egress(std::int32_t q) {
  const std::int32_t b = params_.block();
  const std::int32_t sx = sign_x(q);
  const std::int32_t sy = sign_y(q);
  const auto& psi = psi_[static_cast<std::size_t>(q)];
  auto proxy = runtime().proxy<Tile>(array_id());
  core::ArrayBase& arr = runtime().array(array_id());
  auto prio_to = [&](const core::Index& to) -> core::Priority {
    if (params_.wan_priority == 0) return 0;
    core::Pe dst_pe = arr.location(to);
    return runtime().cluster_of(dst_pe) != runtime().cluster_of(my_pe())
               ? params_.wan_priority
               : 0;
  };
  if (has_downstream(q, 0)) {
    const std::int32_t jl = sx > 0 ? b - 1 : 0;
    std::vector<double> edge(static_cast<std::size_t>(b));
    for (std::int32_t i = 0; i < b; ++i)
      edge[static_cast<std::size_t>(i)] = psi[static_cast<std::size_t>(i) * b + jl];
    core::Index to(tx_ + sx, ty_);
    proxy.send_prio<&Tile::influx>(prio_to(to), to, q, 0, outer_,
                                   std::move(edge));
  }
  if (has_downstream(q, 1)) {
    const std::int32_t il = sy > 0 ? b - 1 : 0;
    std::vector<double> edge(static_cast<std::size_t>(b));
    for (std::int32_t j = 0; j < b; ++j)
      edge[static_cast<std::size_t>(j)] = psi[static_cast<std::size_t>(il) * b + j];
    core::Index to(tx_, ty_ + sy);
    proxy.send_prio<&Tile::influx>(prio_to(to), to, q, 1, outer_,
                                   std::move(edge));
  }
}

void Tile::finish_iteration() {
  const std::int32_t b = params_.block();
  const std::int32_t tiles = params_.tiles;
  std::vector<double> fresh(static_cast<std::size_t>(b) * b);
  double cphi = 0.0, cfis = 0.0, cres = 0.0;
  for (std::int32_t i = 0; i < b; ++i) {
    for (std::int32_t j = 0; j < b; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * b + j;
      // Fixed combining order — bitwise identical on every backend.
      const double p =
          kQuadWeight * (((psi_[0][idx] + psi_[1][idx]) + psi_[2][idx]) +
                         psi_[3][idx]);
      fresh[idx] = p;
      cphi += p;
      cfis += fission_xs(tx_ * b + j, ty_ * b + i) * p;
      const double d = p - (phi_.empty() ? 0.0 : phi_[idx]);
      cres += d * d;
    }
  }
  phi_ = std::move(fresh);
  for (auto& psi : psi_) psi.clear();
  const std::int32_t t = ty_ * params_.k() + tx_;
  // Tile-private slots: the kSum tree only ever adds zeros to each slot,
  // so the reduced vector is independent of combining order.
  std::vector<double> slots(static_cast<std::size_t>(3) * tiles, 0.0);
  slots[static_cast<std::size_t>(t)] = cphi;
  slots[static_cast<std::size_t>(tiles + t)] = cfis;
  slots[static_cast<std::size_t>(2 * tiles + t)] = cres;
  runtime().contribute(*this, std::move(slots), core::ReduceOp::kSum,
                       cmfd_client_);
}

void Tile::apply_cmfd(std::vector<double> totals) {
  const std::int32_t edge = params_.k();
  const std::int32_t tiles = params_.tiles;
  const std::int32_t b = params_.block();
  const double n2 = static_cast<double>(params_.lattice) * params_.lattice;
  MDO_CHECK(totals.size() == static_cast<std::size_t>(3) * tiles);
  double phi_sum = 0.0, fis_sum = 0.0, res_sum = 0.0;
  for (std::int32_t t = 0; t < tiles; ++t) {
    phi_sum += totals[static_cast<std::size_t>(t)];
    fis_sum += totals[static_cast<std::size_t>(tiles + t)];
    res_sum += totals[static_cast<std::size_t>(2 * tiles + t)];
  }
  k_eff_ = fis_sum / phi_sum;
  residual_ = std::sqrt(res_sum / n2);

  // Coarse solve: one Jacobi smoothing step over the coarse flux map
  // gives each tile a multiplicative CMFD correction; the corrected
  // global mean normalizes the next fission source.
  auto coarse = [&](std::int32_t cx, std::int32_t cy) {
    cx = std::clamp(cx, std::int32_t{0}, edge - 1);
    cy = std::clamp(cy, std::int32_t{0}, edge - 1);
    return totals[static_cast<std::size_t>(cy) * edge + cx];
  };
  double corr_phi_sum = 0.0;
  double my_corr = 1.0;
  for (std::int32_t cy = 0; cy < edge; ++cy) {
    for (std::int32_t cx = 0; cx < edge; ++cx) {
      const double c = coarse(cx, cy);
      const double target =
          0.2 * (c + coarse(cx - 1, cy) + coarse(cx + 1, cy) +
                 coarse(cx, cy - 1) + coarse(cx, cy + 1));
      const double corr = target / c;
      corr_phi_sum += c * corr;
      if (cx == tx_ && cy == ty_) my_corr = corr;
    }
  }
  const double phi_mean = corr_phi_sum / n2;
  for (double& p : phi_) p *= my_corr;
  for (std::int32_t i = 0; i < b; ++i) {
    for (std::int32_t j = 0; j < b; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * b + j;
      src_[idx] = fission_xs(tx_ * b + j, ty_ * b + i) * phi_[idx] /
                  (k_eff_ * phi_mean);
    }
  }
  ++outer_;
  if (outer_ < target_iters_) {
    start_iteration();
  } else {
    finished_at_ = runtime().now();
  }
}

void Tile::report() {
  const std::int32_t tiles = params_.tiles;
  const std::int32_t t = ty_ * params_.k() + tx_;
  double cphi = 0.0;
  for (double p : phi_) cphi += p;
  std::vector<double> slots(static_cast<std::size_t>(2) * tiles, 0.0);
  slots[static_cast<std::size_t>(t)] = k_eff_;
  slots[static_cast<std::size_t>(tiles + t)] = cphi;
  runtime().contribute(*this, std::move(slots), core::ReduceOp::kSum,
                       report_client_);
}

void Tile::pup(Pup& p) {
  Chare::pup(p);
  p | params_ | cmfd_client_ | report_client_ | tx_ | ty_ | finished_at_ |
      target_iters_ | outer_ | k_eff_ | residual_ | src_ | phi_ | psi_ |
      influx_x_ | influx_y_ | got_x_ | got_y_ | swept_ | early_;
}

void Tile::resume_iters(std::int32_t more) {
  MDO_CHECK(more > 0);
  const bool was_idle = outer_ >= target_iters_;
  target_iters_ += more;
  if (was_idle) start_iteration();
}

// -- CmfdApp ------------------------------------------------------------------

CmfdApp::CmfdApp(core::Runtime& rt, Params params) : rt_(&rt), params_(params) {
  const std::int32_t edge = params_.k();
  proxy_ = rt_->create_array<Tile>(
      "cmfd_tiles", core::indices_2d(edge, edge),
      core::row_block_map_2d(edge, edge, rt_->num_pes()),
      [](const core::Index&) { return std::make_unique<Tile>(); });
  auto cmfd_client = proxy_.reduction_client<&Tile::apply_cmfd>();
  report_client_ = proxy_.reduction_client(
      [this](const std::vector<double>& d) { report_ = d; });
  // configure() reads the element's index, so it runs after install.
  rt_->array(proxy_.id()).for_each(
      [&](const core::Index&, core::Chare& elem, core::Pe) {
        static_cast<Tile&>(elem).configure(params_, cmfd_client,
                                           report_client_);
      });
}

CmfdApp::PhaseResult CmfdApp::run_iters(std::int32_t iters) {
  MDO_CHECK(iters > 0);
  Phase phase = run_phase(*rt_, phase_++, [&] {
    proxy_.broadcast<&Tile::resume_iters>(iters);
  });

  PhaseResult result;
  result.iters = iters;
  result.elapsed = phase.elapsed;
  result.ms_per_iter = sim::to_ms(result.elapsed) / iters;
  result.fabric = phase.fabric;
  result.metrics = std::move(phase.metrics);
  return result;
}

std::vector<double> CmfdApp::collect() {
  report_.clear();
  proxy_.broadcast<&Tile::report>();
  rt_->run();
  return report_;
}

std::vector<double> CmfdApp::gather_flux() const {
  const std::int32_t n = params_.lattice;
  const std::int32_t b = params_.block();
  const std::int32_t edge = params_.k();
  std::vector<double> flux(static_cast<std::size_t>(n) * n, 0.0);
  for (std::int32_t ty = 0; ty < edge; ++ty) {
    for (std::int32_t tx = 0; tx < edge; ++tx) {
      const Tile* tile = proxy_.local(core::Index(tx, ty));
      MDO_CHECK(tile != nullptr);
      const auto& vals = tile->flux();
      for (std::int32_t i = 0; i < b; ++i)
        for (std::int32_t j = 0; j < b; ++j)
          flux[static_cast<std::size_t>(ty * b + i) * n + tx * b + j] =
              vals[static_cast<std::size_t>(i) * b + j];
    }
  }
  return flux;
}

// -- sequential reference -----------------------------------------------------

Reference sequential_reference(const Params& params, std::int32_t iters) {
  const std::int32_t n = params.lattice;
  const std::int32_t b = params.block();
  const std::int32_t edge = params.k();
  const std::int32_t tiles = params.tiles;
  const double n2 = static_cast<double>(n) * n;
  const std::size_t cells = static_cast<std::size_t>(n) * n;

  std::vector<double> src(cells);
  for (std::int32_t y = 0; y < n; ++y)
    for (std::int32_t x = 0; x < n; ++x)
      src[static_cast<std::size_t>(y) * n + x] = initial_source(x, y);

  Reference ref;
  ref.flux.assign(cells, 0.0);
  std::array<std::vector<double>, 4> psi;
  for (auto& p : psi) p.resize(cells);
  bool first = true;

  for (std::int32_t it = 0; it < iters; ++it) {
    // Four quadrant sweeps over the whole lattice. Cell order within a
    // sweep is irrelevant to the values (pure DAG recurrence); the
    // per-cell arithmetic matches the tiles exactly, because a tile's
    // influx edge is just the neighbor's psi at the shared boundary.
    for (std::int32_t q = 0; q < 4; ++q) {
      const std::int32_t sx = (q & 1) != 0 ? -1 : 1;
      const std::int32_t sy = (q & 2) != 0 ? -1 : 1;
      auto& pq = psi[static_cast<std::size_t>(q)];
      for (std::int32_t ii = 0; ii < n; ++ii) {
        const std::int32_t y = sy > 0 ? ii : n - 1 - ii;
        for (std::int32_t jj = 0; jj < n; ++jj) {
          const std::int32_t x = sx > 0 ? jj : n - 1 - jj;
          const std::size_t idx = static_cast<std::size_t>(y) * n + x;
          const std::int32_t px = x - sx;
          const std::int32_t py = y - sy;
          const double in_x = (px < 0 || px >= n)
                                  ? kBoundaryFlux
                                  : pq[static_cast<std::size_t>(y) * n + px];
          const double in_y = (py < 0 || py >= n)
                                  ? kBoundaryFlux
                                  : pq[static_cast<std::size_t>(py) * n + x];
          pq[idx] = kAxial * in_x + kLateral * in_y + kSource * src[idx];
        }
      }
    }

    // Coarse assembly in tile-local row-major order (matches the tiles).
    std::vector<double> totals(static_cast<std::size_t>(3) * tiles, 0.0);
    std::vector<double> fresh(cells);
    for (std::int32_t ty = 0; ty < edge; ++ty) {
      for (std::int32_t tx = 0; tx < edge; ++tx) {
        double cphi = 0.0, cfis = 0.0, cres = 0.0;
        for (std::int32_t i = 0; i < b; ++i) {
          for (std::int32_t j = 0; j < b; ++j) {
            const std::int32_t gx = tx * b + j;
            const std::int32_t gy = ty * b + i;
            const std::size_t idx = static_cast<std::size_t>(gy) * n + gx;
            const double p =
                kQuadWeight * (((psi[0][idx] + psi[1][idx]) + psi[2][idx]) +
                               psi[3][idx]);
            fresh[idx] = p;
            cphi += p;
            cfis += fission_xs(gx, gy) * p;
            const double d = p - (first ? 0.0 : ref.flux[idx]);
            cres += d * d;
          }
        }
        const std::int32_t t = ty * edge + tx;
        totals[static_cast<std::size_t>(t)] = cphi;
        totals[static_cast<std::size_t>(tiles + t)] = cfis;
        totals[static_cast<std::size_t>(2 * tiles + t)] = cres;
      }
    }
    ref.flux = std::move(fresh);
    first = false;

    // CMFD correction — same arithmetic as Tile::apply_cmfd.
    double phi_sum = 0.0, fis_sum = 0.0, res_sum = 0.0;
    for (std::int32_t t = 0; t < tiles; ++t) {
      phi_sum += totals[static_cast<std::size_t>(t)];
      fis_sum += totals[static_cast<std::size_t>(tiles + t)];
      res_sum += totals[static_cast<std::size_t>(2 * tiles + t)];
    }
    ref.k_eff = fis_sum / phi_sum;
    ref.residual = std::sqrt(res_sum / n2);
    auto coarse = [&](std::int32_t cx, std::int32_t cy) {
      cx = std::clamp(cx, std::int32_t{0}, edge - 1);
      cy = std::clamp(cy, std::int32_t{0}, edge - 1);
      return totals[static_cast<std::size_t>(cy) * edge + cx];
    };
    double corr_phi_sum = 0.0;
    std::vector<double> corr(static_cast<std::size_t>(tiles));
    for (std::int32_t cy = 0; cy < edge; ++cy) {
      for (std::int32_t cx = 0; cx < edge; ++cx) {
        const double c = coarse(cx, cy);
        const double target =
            0.2 * (c + coarse(cx - 1, cy) + coarse(cx + 1, cy) +
                   coarse(cx, cy - 1) + coarse(cx, cy + 1));
        corr[static_cast<std::size_t>(cy) * edge + cx] = target / c;
        corr_phi_sum += c * (target / c);
      }
    }
    const double phi_mean = corr_phi_sum / n2;
    for (std::int32_t y = 0; y < n; ++y) {
      for (std::int32_t x = 0; x < n; ++x) {
        const std::size_t idx = static_cast<std::size_t>(y) * n + x;
        const double my_corr =
            corr[static_cast<std::size_t>(y / b) * edge + x / b];
        ref.flux[idx] *= my_corr;
        src[idx] = fission_xs(x, y) * ref.flux[idx] / (ref.k_eff * phi_mean);
      }
    }
  }
  return ref;
}

}  // namespace mdo::apps::cmfd
