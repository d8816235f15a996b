#include "apps/stencil/stencil.hpp"

#include <algorithm>
#include <cmath>

#include "apps/phase.hpp"
#include "core/mapping.hpp"
#include "util/assert.hpp"

namespace mdo::apps::stencil {

// -- Params -------------------------------------------------------------------

std::int32_t Params::k() const {
  auto root = static_cast<std::int32_t>(std::lround(std::sqrt(objects)));
  MDO_CHECK_MSG(root * root == objects, "objects must be a perfect square");
  return root;
}

std::int32_t Params::block() const {
  std::int32_t edge = k();
  MDO_CHECK_MSG(mesh % edge == 0, "object grid must divide the mesh");
  return mesh / edge;
}

double initial_value(std::int32_t x, std::int32_t y) {
  return static_cast<double>((x * 31 + y * 17) % 101) / 100.0;
}

// -- Chunk ---------------------------------------------------------------------

void Chunk::configure(const Params& params, std::int32_t target_steps) {
  params_ = params;
  MDO_CHECK(params_.ghost_width >= 1);
  MDO_CHECK_MSG(!(params_.real_compute && params_.ghost_width != 1),
                "the real kernel supports ghost_width == 1 only");
  target_steps_ = target_steps;
  cx_ = index().x;
  cy_ = index().y;
  if (params_.real_compute) {
    std::int32_t b = params_.block();
    cur_.resize(static_cast<std::size_t>(b) * b);
    for (std::int32_t i = 0; i < b; ++i) {
      for (std::int32_t j = 0; j < b; ++j) {
        cur_[static_cast<std::size_t>(i) * b + j] =
            initial_value(cx_ * b + j, cy_ * b + i);
      }
    }
  }
}

bool Chunk::has_neighbor(std::int32_t dir) const {
  std::int32_t edge = params_.k();
  switch (dir) {
    case kNorth: return cy_ > 0;
    case kSouth: return cy_ < edge - 1;
    case kWest: return cx_ > 0;
    case kEast: return cx_ < edge - 1;
  }
  MDO_CHECK(false);
  return false;
}

core::Index Chunk::neighbor(std::int32_t dir) const {
  switch (dir) {
    case kNorth: return core::Index(cx_, cy_ - 1);
    case kSouth: return core::Index(cx_, cy_ + 1);
    case kWest: return core::Index(cx_ - 1, cy_);
    case kEast: return core::Index(cx_ + 1, cy_);
  }
  MDO_CHECK(false);
  return {};
}

std::int32_t Chunk::expected_ghosts() const {
  std::int32_t n = 0;
  for (std::int32_t dir = 0; dir < 4; ++dir)
    if (has_neighbor(dir)) ++n;
  return n;
}

std::vector<double> Chunk::edge_strip(std::int32_t dir) const {
  const std::int32_t b = params_.block();
  const std::int32_t g = params_.ghost_width;
  std::vector<double> strip(static_cast<std::size_t>(g) * b, 0.0);
  if (!params_.real_compute) return strip;  // modeled payload (sizes match)
  // g == 1 in real mode: one row/column.
  switch (dir) {
    case kNorth:
      for (std::int32_t j = 0; j < b; ++j) strip[static_cast<std::size_t>(j)] = cur_[static_cast<std::size_t>(j)];
      break;
    case kSouth:
      for (std::int32_t j = 0; j < b; ++j)
        strip[static_cast<std::size_t>(j)] =
            cur_[static_cast<std::size_t>(b - 1) * b + j];
      break;
    case kWest:
      for (std::int32_t i = 0; i < b; ++i)
        strip[static_cast<std::size_t>(i)] = cur_[static_cast<std::size_t>(i) * b];
      break;
    case kEast:
      for (std::int32_t i = 0; i < b; ++i)
        strip[static_cast<std::size_t>(i)] =
            cur_[static_cast<std::size_t>(i) * b + b - 1];
      break;
  }
  return strip;
}

void Chunk::send_ghosts() {
  auto proxy = runtime().proxy<Chunk>(array_id());
  core::ArrayBase& arr = runtime().array(array_id());
  for (std::int32_t dir = 0; dir < 4; ++dir) {
    if (!has_neighbor(dir)) continue;
    core::Index to = neighbor(dir);
    core::Priority prio = 0;
    if (params_.wan_priority != 0) {
      core::Pe dst_pe = arr.location(to);
      if (runtime().cluster_of(dst_pe) != runtime().cluster_of(my_pe()))
        prio = params_.wan_priority;
    }
    proxy.send_prio<&Chunk::ghost>(prio, to, opposite(dir), round_,
                                   edge_strip(dir));
  }
}

void Chunk::ghost(std::int32_t dir, std::int32_t round,
                  std::vector<double> strip) {
  MDO_CHECK(dir >= 0 && dir < 4);
  if (round != round_) {
    // A faster neighbor is already a round ahead; hold its strip.
    MDO_CHECK_MSG(round > round_, "ghost from the past");
    early_[{round, dir}] = std::move(strip);
    return;
  }
  MDO_CHECK_MSG(strips_[static_cast<std::size_t>(dir)].empty(),
                "duplicate ghost for this round");
  strips_[static_cast<std::size_t>(dir)] = std::move(strip);
  ++arrived_;
  maybe_compute();
}

sim::TimeNs Chunk::round_cost() const {
  const double rate = params_.rates.ns_per_cell(params_.block_bytes());
  const auto b = static_cast<double>(params_.block());
  const std::int32_t g = params_.ghost_width;
  double cells = b * b * g;
  // Ghost-zone expansion recomputes a shrinking halo (related work [6]).
  for (std::int32_t m = 1; m < g; ++m) {
    double wide = b + 2.0 * m;
    cells += wide * wide - b * b;
  }
  return static_cast<sim::TimeNs>(cells * rate);
}

void Chunk::compute_round() {
  if (params_.modeled_charge) charge(round_cost());
  if (params_.real_compute) apply_real_update();
  for (auto& strip : strips_) strip.clear();
  ++round_;
  steps_done_ += params_.ghost_width;
}

void Chunk::apply_real_update() {
  const std::int32_t b = params_.block();
  const std::int32_t n = params_.mesh;
  std::vector<double> next(cur_.size());
  auto at = [&](std::int32_t i, std::int32_t j) -> double {
    // (i, j) in block coordinates, possibly one off the edge.
    if (i == -1) return strips_[kNorth][static_cast<std::size_t>(j)];
    if (i == b) return strips_[kSouth][static_cast<std::size_t>(j)];
    if (j == -1) return strips_[kWest][static_cast<std::size_t>(i)];
    if (j == b) return strips_[kEast][static_cast<std::size_t>(i)];
    return cur_[static_cast<std::size_t>(i) * b + j];
  };
  for (std::int32_t i = 0; i < b; ++i) {
    const std::int32_t gy = cy_ * b + i;
    for (std::int32_t j = 0; j < b; ++j) {
      const std::int32_t gx = cx_ * b + j;
      std::size_t idx = static_cast<std::size_t>(i) * b + j;
      if (gx == 0 || gy == 0 || gx == n - 1 || gy == n - 1) {
        next[idx] = cur_[idx];  // fixed (Dirichlet) global boundary
      } else {
        next[idx] = 0.2 * (at(i, j) + at(i - 1, j) + at(i + 1, j) +
                           at(i, j - 1) + at(i, j + 1));
      }
    }
  }
  cur_ = std::move(next);
}

void Chunk::maybe_compute() {
  while (steps_done_ < target_steps_ && arrived_ == expected_ghosts()) {
    compute_round();
    if (steps_done_ >= target_steps_) finished_at_ = runtime().now();
    arrived_ = 0;
    // Adopt any strips that arrived early for the new round.
    for (std::int32_t dir = 0; dir < 4; ++dir) {
      auto it = early_.find({round_, dir});
      if (it == early_.end()) continue;
      strips_[static_cast<std::size_t>(dir)] = std::move(it->second);
      early_.erase(it);
      ++arrived_;
    }
    if (steps_done_ < target_steps_) send_ghosts();
  }
}

void Chunk::resume_steps(std::int32_t more_steps) {
  MDO_CHECK(more_steps > 0);
  MDO_CHECK_MSG(more_steps % params_.ghost_width == 0,
                "steps must be a multiple of ghost_width");
  const bool was_idle = steps_done_ >= target_steps_;
  target_steps_ += more_steps;
  if (was_idle) {
    send_ghosts();
    maybe_compute();
  }
}

void Chunk::pup(Pup& p) {
  Chare::pup(p);
  p | params_ | cx_ | cy_ | finished_at_ | target_steps_ | steps_done_ |
      round_ | arrived_ | cur_ | strips_ | early_;
}

// -- StencilApp ------------------------------------------------------------------

StencilApp::StencilApp(core::Runtime& rt, Params params)
    : rt_(&rt), params_(params) {
  const std::int32_t edge = params_.k();
  proxy_ = rt_->create_array<Chunk>(
      "stencil_chunks", core::indices_2d(edge, edge),
      core::row_block_map_2d(edge, edge, rt_->num_pes()),
      [](const core::Index&) { return std::make_unique<Chunk>(); });
  // configure() reads the element's index, so it runs after install.
  rt_->array(proxy_.id()).for_each(
      [this](const core::Index&, core::Chare& elem, core::Pe) {
        static_cast<Chunk&>(elem).configure(params_, 0);
      });
}

StencilApp::PhaseResult StencilApp::run_steps(std::int32_t steps) {
  MDO_CHECK(steps > 0);
  Phase phase = run_phase(*rt_, phase_++, [&] {
    proxy_.broadcast<&Chunk::resume_steps>(steps);
  });

  PhaseResult result;
  result.steps = steps;
  result.elapsed = phase.elapsed;
  result.ms_per_step = sim::to_ms(result.elapsed) / steps;
  // App-level completion: the latest chunk's final-step timestamp. Falls
  // back to quiescence time if any chunk is unreachable (never with the
  // in-process machines).
  const sim::TimeNs t0 = phase.start;
  sim::TimeNs finished = 0;
  bool all_local = true;
  const std::int32_t edge = params_.k();
  for (std::int32_t cy = 0; cy < edge && all_local; ++cy) {
    for (std::int32_t cx = 0; cx < edge; ++cx) {
      const Chunk* chunk = proxy_.local(core::Index(cx, cy));
      if (chunk == nullptr) {
        all_local = false;
        break;
      }
      finished = std::max(finished, chunk->finished_at());
    }
  }
  result.app_elapsed = all_local && finished > t0 ? finished - t0
                                                  : result.elapsed;
  result.app_ms_per_step = sim::to_ms(result.app_elapsed) / steps;
  result.fabric = phase.fabric;
  result.metrics = std::move(phase.metrics);
  return result;
}

std::vector<double> StencilApp::gather_mesh() const {
  const std::int32_t n = params_.mesh;
  const std::int32_t b = params_.block();
  const std::int32_t edge = params_.k();
  std::vector<double> mesh(static_cast<std::size_t>(n) * n, 0.0);
  for (std::int32_t cy = 0; cy < edge; ++cy) {
    for (std::int32_t cx = 0; cx < edge; ++cx) {
      const Chunk* chunk = proxy_.local(core::Index(cx, cy));
      MDO_CHECK(chunk != nullptr);
      const auto& vals = chunk->values();
      for (std::int32_t i = 0; i < b; ++i)
        for (std::int32_t j = 0; j < b; ++j)
          mesh[static_cast<std::size_t>(cy * b + i) * n + cx * b + j] =
              vals[static_cast<std::size_t>(i) * b + j];
    }
  }
  return mesh;
}

std::vector<double> sequential_reference(const Params& params,
                                         std::int32_t steps) {
  const std::int32_t n = params.mesh;
  std::vector<double> cur(static_cast<std::size_t>(n) * n);
  for (std::int32_t y = 0; y < n; ++y)
    for (std::int32_t x = 0; x < n; ++x)
      cur[static_cast<std::size_t>(y) * n + x] = initial_value(x, y);

  std::vector<double> next(cur.size());
  for (std::int32_t s = 0; s < steps; ++s) {
    for (std::int32_t y = 0; y < n; ++y) {
      for (std::int32_t x = 0; x < n; ++x) {
        std::size_t i = static_cast<std::size_t>(y) * n + x;
        if (x == 0 || y == 0 || x == n - 1 || y == n - 1) {
          next[i] = cur[i];
        } else {
          next[i] = 0.2 * (cur[i] + cur[i - static_cast<std::size_t>(n)] +
                           cur[i + static_cast<std::size_t>(n)] + cur[i - 1] +
                           cur[i + 1]);
        }
      }
    }
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace mdo::apps::stencil
