#pragma once
// CMFD-accelerated lattice transport sweep (OpenMOC-style, the scale
// companion app of the sharded scheduler): an N×N fine lattice is
// decomposed into k×k tile objects. Each outer (power) iteration sweeps
// four angular quadrants across the lattice as wavefronts — a tile may
// sweep quadrant q only once the upstream x- and y-edge angular influxes
// for q have arrived — then assembles a coarse-mesh (one coarse cell per
// tile) flux/fission/residual vector through a single kSum reduction.
// The reduction result is broadcast back to every tile, which applies a
// CMFD multiplicative correction (one Jacobi smoothing step on the
// coarse grid) and the k_eff-normalized fission source for the next
// outer iteration.
//
// Numerical determinism contract: every cross-tile sum lands in a
// tile-private slot of the reduction vector (x + 0.0 is exact), and all
// cross-slot sums happen in fixed index order after the reduction — so
// the run is bitwise reproducible across Sim/Thread/Process backends
// and bitwise equal to the sequential reference.

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/array.hpp"
#include "core/runtime.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace mdo::apps::cmfd {

struct Params {
  std::int32_t lattice = 256;  ///< N: the fine lattice is N×N cells
  std::int32_t tiles = 16;     ///< must be a perfect square k², k | N
  bool modeled_charge = true;  ///< charge the modeled sweep cost
  double ns_per_cell = 6.0;    ///< modeled cost per cell per quadrant

  /// Ablation (paper §6 #3): priority for cross-cluster influx edges.
  core::Priority wan_priority = 0;

  std::int32_t k() const;      ///< tile grid edge = sqrt(tiles)
  std::int32_t block() const;  ///< cells per tile edge = lattice / k
};

/// Angular influx entering every cell on the lattice boundary (vacuum
/// boundaries would make iteration 1 degenerate; a warm boundary keeps
/// all four wavefronts non-trivial from the start).
inline constexpr double kBoundaryFlux = 0.5;

/// Characteristic recurrence weights: psi = kAxial·in_x + kLateral·in_y
/// + kSource·src. kAxial + kLateral < 1 keeps the sweep contractive.
inline constexpr double kAxial = 0.4;
inline constexpr double kLateral = 0.4;
inline constexpr double kSource = 0.2;
inline constexpr double kQuadWeight = 0.25;  ///< angular quadrature weight

/// Initial fission source at global cell (x, y) — shared by tiles and
/// the sequential reference.
double initial_source(std::int32_t x, std::int32_t y);
/// Fission production cross-section ν·Σ_f at global cell (x, y).
double fission_xs(std::int32_t x, std::int32_t y);

/// One lattice tile. Entry methods: resume_iters / influx / apply_cmfd /
/// report.
class Tile final : public core::Chare {
 public:
  Tile() = default;

  void configure(const Params& params, core::ReductionClientId cmfd_client,
                 core::ReductionClientId report_client);

  // -- entry methods -------------------------------------------------------
  /// Raise the outer-iteration target by `more` and (re)start sweeping.
  void resume_iters(std::int32_t more);
  /// Upstream edge influx for quadrant `q`: axis 0 = x-edge (one value
  /// per row), axis 1 = y-edge (one value per column).
  void influx(std::int32_t q, std::int32_t axis, std::int32_t iter,
              std::vector<double> edge);
  /// Reduction client: the coarse-grid [phi | fission | residual] slot
  /// vector. Applies the CMFD correction and starts the next iteration.
  void apply_cmfd(std::vector<double> totals);
  /// Contribute [k_eff | coarse phi] slots to the host report client.
  void report();

  void pup(Pup& p) override;

  // -- inspection ----------------------------------------------------------
  std::int32_t iters_done() const { return outer_; }
  double k_eff() const { return k_eff_; }
  double residual() const { return residual_; }
  const std::vector<double>& flux() const { return phi_; }
  sim::TimeNs finished_at() const { return finished_at_; }

 private:
  static std::int32_t sign_x(std::int32_t q) { return (q & 1) != 0 ? -1 : 1; }
  static std::int32_t sign_y(std::int32_t q) { return (q & 2) != 0 ? -1 : 1; }
  bool has_upstream(std::int32_t q, std::int32_t axis) const;
  bool has_downstream(std::int32_t q, std::int32_t axis) const;

  void start_iteration();
  void maybe_sweep(std::int32_t q);
  void sweep_quadrant(std::int32_t q);
  void send_egress(std::int32_t q);
  void finish_iteration();

  Params params_{};
  core::ReductionClientId cmfd_client_ = -1;
  core::ReductionClientId report_client_ = -1;
  std::int32_t tx_ = 0, ty_ = 0;
  sim::TimeNs finished_at_ = 0;
  std::int32_t target_iters_ = 0;
  std::int32_t outer_ = 0;  ///< completed outer iterations
  double k_eff_ = 1.0;
  double residual_ = 0.0;
  std::vector<double> src_;                   ///< B×B fission source
  std::vector<double> phi_;                   ///< B×B corrected scalar flux
  std::array<std::vector<double>, 4> psi_;    ///< per-quadrant angular flux
  std::array<std::vector<double>, 4> influx_x_, influx_y_;
  std::array<bool, 4> got_x_{}, got_y_{}, swept_{};
  /// (iter, q·2 + axis) → edge that arrived before this tile reached iter.
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<double>> early_;
};

/// Host-side driver: owns the tile array and measures phases.
class CmfdApp {
 public:
  struct PhaseResult {
    std::int32_t iters = 0;
    sim::TimeNs elapsed = 0;
    double ms_per_iter = 0.0;
    net::Fabric::Stats fabric{};  ///< deltas for this phase
    obs::Snapshot metrics;        ///< registry deltas for this phase
  };

  CmfdApp(core::Runtime& rt, Params params);

  /// Run `iters` more outer iterations to quiescence and report timing.
  PhaseResult run_iters(std::int32_t iters);

  /// Gather the [k_eff | coarse phi] slot vector through a host-side
  /// reduction round (works on every backend, including process). Slots
  /// 0..tiles-1 carry each tile's k_eff copy; tiles..2·tiles-1 its
  /// coarse flux sum.
  std::vector<double> collect();

  core::ArrayProxy<Tile>& proxy() { return proxy_; }
  core::Runtime& runtime() { return *rt_; }
  const Params& params() const { return params_; }

  /// Assemble the full fine-lattice flux from the tiles (in-process
  /// machines only).
  std::vector<double> gather_flux() const;

 private:
  core::Runtime* rt_;
  Params params_;
  core::ArrayProxy<Tile> proxy_;
  core::ReductionClientId report_client_ = -1;
  std::vector<double> report_;  ///< last collect() capture
  std::int32_t phase_ = 0;
};

struct Reference {
  std::vector<double> flux;  ///< N×N corrected scalar flux
  double k_eff = 1.0;
  double residual = 0.0;
};

/// Host-side sequential sweep + CMFD of the same lattice, bit-identical
/// to the distributed run (same operation order everywhere).
Reference sequential_reference(const Params& params, std::int32_t iters);

}  // namespace mdo::apps::cmfd
