#pragma once
// Five-point stencil decomposition application (paper §4, §5.2): an N×N
// mesh Jacobi relaxation decomposed into k×k chare-array objects. Each
// object exchanges edge strips with its four neighbors every step (or
// every g steps with g-deep ghost zones — the related-work [6] baseline)
// and advances when all expected ghosts have arrived. The degree of
// virtualization (objects per PE) is the experimental knob of Figure 3.

#include <cstdint>
#include <map>
#include <vector>

#include "core/array.hpp"
#include "core/runtime.hpp"
#include "grid/calibration.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace mdo::apps::stencil {

struct Params {
  std::int32_t mesh = 2048;      ///< N: the mesh is N×N cells
  std::int32_t objects = 64;     ///< must be a perfect square k², k | N
  bool real_compute = false;     ///< actually run the Jacobi kernel
  bool modeled_charge = true;    ///< charge the Itanium-2 cost model
  grid::StencilRates rates{};

  /// Ablation A (paper §6 #3): priority for cross-cluster ghost messages
  /// (negative = more urgent than local traffic; 0 = plain FIFO).
  core::Priority wan_priority = 0;

  /// Ablation C (related work [6]): ghost-zone depth. Ghosts are
  /// exchanged every g steps carrying g-deep strips; g > 1 requires
  /// modeled compute (real kernel supports g = 1 only).
  std::int32_t ghost_width = 1;

  std::int32_t k() const;            ///< object grid edge = sqrt(objects)
  std::int32_t block() const;        ///< cells per object edge = mesh / k
  std::size_t block_bytes() const {
    return static_cast<std::size_t>(block()) * block() * sizeof(double);
  }
};

/// One mesh block. Entry methods: start / resume_steps / ghost.
class Chunk final : public core::Chare {
 public:
  Chunk() = default;

  void configure(const Params& params, std::int32_t target_steps);

  // -- entry methods ---------------------------------------------------------
  /// Raise the step target by `more_steps` and (re)start exchanging.
  /// The first broadcast starts the run; later ones continue it (used by
  /// the load-balancing phases).
  void resume_steps(std::int32_t more_steps);
  void ghost(std::int32_t dir, std::int32_t round, std::vector<double> strip);

  void pup(Pup& p) override;

  // -- inspection -------------------------------------------------------------
  std::int32_t steps_done() const { return steps_done_; }
  const std::vector<double>& values() const { return cur_; }
  /// Virtual time at which this chunk finished its current step target
  /// (0 until the first target is met).
  sim::TimeNs finished_at() const { return finished_at_; }

 private:
  enum Dir : std::int32_t { kNorth = 0, kSouth = 1, kWest = 2, kEast = 3 };
  static std::int32_t opposite(std::int32_t dir) { return dir ^ 1; }

  bool has_neighbor(std::int32_t dir) const;
  core::Index neighbor(std::int32_t dir) const;
  std::int32_t expected_ghosts() const;

  void send_ghosts();
  void maybe_compute();
  void compute_round();
  void apply_real_update();
  std::vector<double> edge_strip(std::int32_t dir) const;
  sim::TimeNs round_cost() const;

  Params params_{};
  std::int32_t cx_ = 0, cy_ = 0;
  sim::TimeNs finished_at_ = 0;
  std::int32_t target_steps_ = 0;
  std::int32_t steps_done_ = 0;
  std::int32_t round_ = 0;
  std::int32_t arrived_ = 0;
  std::vector<double> cur_;                     // real mode: B×B row-major
  std::array<std::vector<double>, 4> strips_;   // current-round ghosts
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<double>>
      early_;                                   // (round, dir) → strip
};

/// Host-side driver: owns the chare array and measures phases.
class StencilApp {
 public:
  struct PhaseResult {
    std::int32_t steps = 0;
    sim::TimeNs elapsed = 0;      ///< to quiescence (includes any armed
                                  ///< background timers: heartbeat watch,
                                  ///< adaptive ticker, scheduled drifts)
    double ms_per_step = 0.0;
    sim::TimeNs app_elapsed = 0;  ///< to the last chunk's final step —
                                  ///< the step-time basis when the
                                  ///< scenario carries background timers
    double app_ms_per_step = 0.0;
    net::Fabric::Stats fabric{};  ///< deltas for this phase
    obs::Snapshot metrics;        ///< registry deltas for this phase
  };

  StencilApp(core::Runtime& rt, Params params);

  /// Run `steps` more steps to quiescence and report the phase timing.
  /// Each call is one phase: when tracing is on, a phase-marker event
  /// brackets it in the trace (entry field = phase number).
  PhaseResult run_steps(std::int32_t steps);

  core::ArrayProxy<Chunk>& proxy() { return proxy_; }
  core::Runtime& runtime() { return *rt_; }
  const Params& params() const { return params_; }

  /// Assemble the full mesh from the chunks (real-compute mode).
  std::vector<double> gather_mesh() const;

 private:
  core::Runtime* rt_;
  Params params_;
  core::ArrayProxy<Chunk> proxy_;
  std::int32_t phase_ = 0;  ///< run_steps calls so far (phase-marker id)
};

/// Initial mesh value at global cell (x, y) — shared by chunks and the
/// sequential reference.
double initial_value(std::int32_t x, std::int32_t y);

/// Host-side sequential Jacobi of the same mesh, for correctness checks.
std::vector<double> sequential_reference(const Params& params,
                                         std::int32_t steps);

}  // namespace mdo::apps::stencil
