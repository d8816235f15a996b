#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>

#include "apps/cmfd/cmfd.hpp"
#include "apps/leanmd/leanmd.hpp"
#include "apps/stencil/stencil.hpp"
#include "core/array.hpp"
#include "core/runtime.hpp"
#include "core/trace_report.hpp"
#include "grid/scenario.hpp"
#include "net/heartbeat.hpp"
#include "net/reliable.hpp"
#include "obs/json.hpp"

namespace wanbench {
namespace {

using namespace mdo;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// -- spans --------------------------------------------------------------------

/// Spans around the benchmark's calls into the program: name, start,
/// end and the enclosing span, kept in memory and written at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), Clock::now(), {},
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return ms_between(s.start, s.end);
  }
  /// Run `fn` inside a span; returns its wall milliseconds.
  template <class Fn>
  double time(std::string name, Fn&& fn) {
    const int id = open(std::move(name));
    fn();
    return close(id);
  }

  obs::Json to_json() const {
    obs::Json out = obs::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      obs::Json j = obs::Json::object();
      j.set("id", static_cast<std::int64_t>(i));
      j.set("name", s.name);
      j.set("start_ms", ms_between(origin_, s.start));
      j.set("end_ms", ms_between(origin_, s.end));
      j.set("parent", static_cast<std::int64_t>(s.parent));
      out.push(std::move(j));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// -- apps ---------------------------------------------------------------------

struct PhaseOut {
  std::int32_t steps = 0;
  std::int32_t id = 0;           ///< the app's phase number (trace marker)
  double wall_ms = 0.0;          ///< the run call, timed from outside
  sim::TimeNs elapsed = 0;       ///< machine clock, to quiescence
  sim::TimeNs app_elapsed = -1;  ///< to the last element's final step;
                                 ///< -1 when the app keeps no stamp
  std::uint64_t wan_frames = 0;
};

/// One application behind the common phase interface. capture() reads
/// the outputs while the runtime lives; verify() runs after teardown and
/// uses only what capture() kept.
class App {
 public:
  virtual ~App() = default;
  virtual const char* run_call() const = 0;
  virtual PhaseOut phase(std::int32_t steps) = 0;
  /// The measured window starts (after the warm-up).
  virtual void window_start() {}
  /// A phase of the measured window ended.
  virtual void window_phase_done() {}
  virtual void capture(SpanLog& spans) = 0;
  virtual void verify(std::int64_t total_steps, std::int64_t window_steps,
                      std::vector<CheckResult>& checks) = 0;
  double reference_ms = 0.0;        ///< the correctness reference's wall time
  std::int64_t reference_steps = 1;

 protected:
  std::int32_t next_phase_ = 0;
};

class StencilRun final : public App {
 public:
  StencilRun(core::Runtime& rt, apps::stencil::Params p)
      : params_(p), app_(rt, p), pes_(rt.num_pes()) {}
  const char* run_call() const override { return "StencilApp::run_steps"; }

  PhaseOut phase(std::int32_t steps) override {
    auto r = app_.run_steps(steps);
    executed_ += r.metrics.counter("rt.sched.msgs_executed");
    expected_ += stencil_expected_msgs(params_.k(), steps, pes_);
    PhaseOut o;
    o.steps = steps;
    o.id = next_phase_++;
    o.elapsed = r.elapsed;
    o.app_elapsed = r.app_elapsed;
    o.wan_frames = r.fabric.wan_wire_frames;
    return o;
  }
  void capture(SpanLog& spans) override {
    spans.time("StencilApp::gather_mesh", [&] { mesh_ = app_.gather_mesh(); });
  }
  void verify(std::int64_t total_steps, std::int64_t,
              std::vector<CheckResult>& checks) override {
    const auto t0 = Clock::now();
    const std::vector<double> ref = apps::stencil::sequential_reference(
        params_, static_cast<std::int32_t>(total_steps));
    reference_ms = ms_between(t0, Clock::now());
    reference_steps = total_steps;
    checks.push_back(check_bitwise("stencil.mesh_bitwise", mesh_, ref));
    checks.push_back(
        check_equal("stencil.msgs_executed", executed_, expected_));
  }

 private:
  apps::stencil::Params params_;
  apps::stencil::StencilApp app_;
  std::int32_t pes_;
  std::uint64_t executed_ = 0, expected_ = 0;
  std::vector<double> mesh_;
};

class CmfdRun final : public App {
 public:
  CmfdRun(core::Runtime& rt, apps::cmfd::Params p)
      : rt_(&rt), params_(p), app_(rt, p) {}
  const char* run_call() const override { return "CmfdApp::run_iters"; }

  PhaseOut phase(std::int32_t iters) override {
    const sim::TimeNs t0 = rt_->now();
    auto r = app_.run_iters(iters);
    PhaseOut o;
    o.steps = iters;
    o.id = next_phase_++;
    o.elapsed = r.elapsed;
    o.wan_frames = r.fabric.wan_wire_frames;
    // The tiles stamp their last iteration; every tile is in this address
    // space on the simulator.
    sim::TimeNs last = 0;
    const std::int32_t edge = params_.k();
    for (std::int32_t ty = 0; ty < edge; ++ty)
      for (std::int32_t tx = 0; tx < edge; ++tx)
        if (const auto* tile = app_.proxy().local(core::Index(tx, ty)))
          last = std::max(last, tile->finished_at());
    if (last > t0) o.app_elapsed = std::min(r.elapsed, last - t0);
    return o;
  }
  void capture(SpanLog& spans) override {
    spans.time("CmfdApp::collect", [&] { slots_ = app_.collect(); });
    spans.time("MetricRegistry::snapshot",
               [&] { final_ = rt_->machine().metrics().snapshot(); });
  }
  void verify(std::int64_t total_steps, std::int64_t,
              std::vector<CheckResult>& checks) override {
    const auto t0 = Clock::now();
    const apps::cmfd::Reference ref = apps::cmfd::sequential_reference(
        params_, static_cast<std::int32_t>(total_steps));
    reference_ms = ms_between(t0, Clock::now());
    reference_steps = total_steps;
    checks.push_back(check_bitwise("cmfd.keff_and_coarse_flux_bitwise", slots_,
                                   cmfd_reference_slots(params_, ref)));
    checks.push_back(check_equal(
        "cmfd.sent_eq_executed_plus_dropped",
        final_.counter("rt.sched.msgs_sent"),
        final_.counter("rt.sched.msgs_executed") +
            final_.counter("rt.sched.msgs_dropped")));
    checks.push_back(check_equal("cmfd.reliable_delivered_eq_sent",
                                 final_.counter("net.reliable.delivered"),
                                 final_.counter("net.reliable.data_sent")));
    checks.push_back(check_equal("cmfd.flows_abandoned",
                                 final_.counter("net.reliable.flows_abandoned"),
                                 0));
  }

 private:
  core::Runtime* rt_;
  apps::cmfd::Params params_;
  apps::cmfd::CmfdApp app_;
  std::vector<double> slots_;
  obs::Snapshot final_;
};

class LeanMdRun final : public App {
 public:
  LeanMdRun(core::Runtime& rt, apps::leanmd::Params p)
      : params_(p), app_(rt, p) {}
  const char* run_call() const override { return "LeanMdApp::run_steps"; }

  PhaseOut phase(std::int32_t steps) override {
    auto r = app_.run_steps(steps);
    PhaseOut o;
    o.steps = steps;
    o.id = next_phase_++;
    o.elapsed = r.elapsed;
    o.wan_frames = r.fabric.wan_wire_frames;
    return o;
  }
  void window_start() override {
    start_ = read_cells();
    sample(md_state(params_, start_));
  }
  void window_phase_done() override {
    sample(md_state(params_, read_cells()));
  }
  void capture(SpanLog&) override { end_ = read_cells(); }
  void verify(std::int64_t total_steps, std::int64_t window_steps,
              std::vector<CheckResult>& checks) override {
    // The correctness reference is the host-side Hamiltonian: one
    // evaluation is the force work of one step.
    const MdState start = md_state(params_, start_);
    const auto t0 = Clock::now();
    const MdState end = md_state(params_, end_);
    reference_ms = ms_between(t0, Clock::now());
    reference_steps = 1;
    checks.push_back(
        check_steps_reached(end_, static_cast<std::int32_t>(total_steps)));
    // Rounding grows with the forces and speeds; take the larger state.
    MdState scale = start;
    scale.pair_force_abs_sum =
        std::max(start.pair_force_abs_sum, end.pair_force_abs_sum);
    scale.speed_abs_sum = std::max(start.speed_abs_sum, end.speed_abs_sum);
    checks.push_back(check_momentum(
        start.momentum, end.momentum,
        md_momentum_bound(params_, scale, window_steps)));
    checks.push_back(
        check_energy_drift(energies_, md_energy_bound(params_, max_f2_)));
  }

 private:
  void sample(const MdState& s) {
    energies_.push_back(s.total());
    max_f2_ = std::max(max_f2_, s.force_sq_sum);
  }

  std::vector<MdCell> read_cells() {
    std::vector<MdCell> cells;
    const std::int32_t d = params_.cells_per_dim;
    for (std::int32_t z = 0; z < d; ++z) {
      for (std::int32_t y = 0; y < d; ++y) {
        for (std::int32_t x = 0; x < d; ++x) {
          const core::Index index(x, y, z);
          const apps::leanmd::Cell* cell = app_.cells().local(index);
          // A cell the host cannot read counts as one that never stepped.
          cells.push_back(cell == nullptr
                              ? MdCell{index, -1, {}, {}}
                              : MdCell{index, cell->steps_done(),
                                       cell->positions(), cell->velocities()});
        }
      }
    }
    return cells;
  }

  apps::leanmd::Params params_;
  apps::leanmd::LeanMdApp app_;
  std::vector<MdCell> start_, end_;
  std::vector<double> energies_;
  double max_f2_ = 0.0;
};

// -- workload specs -------------------------------------------------------------

struct Spec {
  grid::Backend backend = grid::Backend::kSim;
  grid::Scenario scenario;
  core::MachineOptions options;
  std::int32_t warmup_steps = 1;
  std::int32_t trace_phase_steps = 1;  ///< traced-run phase length
  std::int32_t min_steps = 1;          ///< measured phase, at least
  sim::TimeNs detector_horizon = 0;    ///< arm the heartbeat detector
  /// Simulator only: the measured steps are seconds × this rate, not
  /// sized from the warm-up's wall time, so a seed's virtual results
  /// repeat exactly whatever the host's speed.
  double steps_per_second = 0.0;
  std::function<std::unique_ptr<App>(core::Runtime&)> make_app;
};

constexpr std::int32_t kMaxSteps = 100000;
/// The untraced window runs as this many equal phases and reports their
/// median step time, so a burst of load on the host during one phase
/// does not move the run's figure.
constexpr int kMeasuredPhases = 8;

Spec make_spec(const Options& opt) {
  Spec s;
  if (opt.workload == "stencil-thread") {
    apps::stencil::Params p;
    p.mesh = opt.tiny ? 64 : 512;
    p.objects = opt.tiny ? 16 : 64;
    p.real_compute = true;
    p.modeled_charge = true;
    s.backend = grid::Backend::kThread;
    s.scenario = grid::Scenario::artificial(2, sim::milliseconds(4.0));
    s.options.emulate_charge = true;
    s.warmup_steps = opt.tiny ? 3 : 20;
    s.trace_phase_steps = opt.tiny ? 5 : 50;
    s.min_steps = opt.tiny ? 5 : 50;
    s.make_app = [p](core::Runtime& rt) {
      return std::make_unique<StencilRun>(rt, p);
    };
  } else if (opt.workload == "leanmd-process") {
    apps::leanmd::Params p;
    p.cells_per_dim = opt.tiny ? 3 : 6;
    p.atoms_per_cell = opt.tiny ? 8 : 16;
    p.real_compute = true;
    p.modeled_charge = true;
    p.seed = opt.seed;
    s.backend = grid::Backend::kProcess;
    s.scenario = grid::Scenario::artificial(2, sim::milliseconds(4.0))
                     .with_crashes()
                     .with_coalescing();
    s.options.emulate_charge = true;
    s.warmup_steps = opt.tiny ? 2 : 5;
    // ThreadMachine-sized trace rings (2^15 events per PE) hold about ten
    // LeanMD steps; the traced run drains after every phase.
    s.trace_phase_steps = opt.tiny ? 2 : 4;
    s.min_steps = opt.tiny ? 2 : 10;
    s.detector_horizon = sim::seconds(3.0 * opt.seconds + 60.0);
    s.make_app = [p](core::Runtime& rt) {
      return std::make_unique<LeanMdRun>(rt, p);
    };
  } else if (opt.workload == "cmfd-sim-lossy") {
    apps::cmfd::Params p;
    p.lattice = opt.tiny ? 64 : 1024;
    p.tiles = opt.tiny ? 16 : 1024;
    s.backend = grid::Backend::kSim;
    // The detector stays unarmed: an armed watch keeps the event queue
    // alive to its horizon, so a phase would end there, not at quiescence.
    s.scenario = grid::Scenario::artificial(16, sim::milliseconds(8.0))
                     .with_clusters(4)
                     .with_loss(0.01, opt.seed)
                     .with_crashes()
                     .with_coalescing();
    s.warmup_steps = opt.tiny ? 1 : 2;
    s.trace_phase_steps = opt.tiny ? 1 : 4;
    s.min_steps = opt.tiny ? 1 : 4;
    s.steps_per_second = opt.tiny ? 20.0 : 15.0;
    s.make_app = [p](core::Runtime& rt) {
      return std::make_unique<CmfdRun>(rt, p);
    };
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  return s;
}

// -- one run of a workload --------------------------------------------------------

struct Run {
  double setup_s = 0.0;
  double make_machine_ms = 0.0;
  double create_arrays_ms = 0.0;
  double boot_ms = 0.0;
  std::vector<PhaseOut> phases;  ///< the measured ones
  std::int64_t total_steps = 0;
  std::int64_t window_steps = 0;
  double window_wall_ms = 0.0;
  obs::Snapshot delta;  ///< registry change over the measured phases
  obs::Snapshot after;  ///< registry at the end of the measured phases
  std::vector<double> snapshot_us;
  std::vector<core::TraceEvent> trace;
  net::Topology topo;
  int pes = 0;
  double peak_rss_mib = 0.0;
  double reference_ms_per_step = 0.0;
  std::vector<CheckResult> checks;

  bool ok() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const CheckResult& c) { return c.ok; });
  }
  /// Median over the measured phases of the step time on the machine's
  /// clock: virtual on the simulator, wall (the run call timed from
  /// outside) on the real-time backends.
  double step_ms(bool virtual_clock) const {
    std::vector<double> per_phase;
    for (const PhaseOut& p : phases)
      per_phase.push_back(
          (virtual_clock ? sim::to_ms(p.elapsed) : p.wall_ms) / p.steps);
    return median(per_phase);
  }
};

double peak_rss_mib() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // reaped forked PEs
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Build, warm up, measure and check one machine. `phase_steps` 0 runs
/// the measured window as kMeasuredPhases phases sized to `budget_s`
/// from the warm-up step time; otherwise phases of that many steps until
/// the budget is spent, draining the trace after each when `traced`.
Run run_once(const Spec& spec, bool traced, double budget_s,
             std::int32_t phase_steps, Clock::time_point setup_origin,
             SpanLog& spans) {
  Run s;
  grid::Scenario scenario = spec.scenario;
  scenario.with_tracing(traced);
  const int root = spans.open(traced ? "run.traced" : "run.untraced");

  std::unique_ptr<core::Machine> machine;
  s.make_machine_ms = spans.time("grid::make_machine", [&] {
    machine = grid::make_machine(scenario, spec.backend, spec.options);
  });
  if (spec.detector_horizon > 0) {
    if (net::HeartbeatDevice* hb = machine->reliability().heartbeat)
      hb->watch(spec.detector_horizon);
  }
  s.topo = machine->topology();
  s.pes = machine->num_pes();
  auto rt = std::make_unique<core::Runtime>(std::move(machine));

  std::unique_ptr<App> app;
  s.create_arrays_ms =
      spans.time("app constructor", [&] { app = spec.make_app(*rt); });

  auto timed_phase = [&](std::int32_t steps, const std::string& label) {
    PhaseOut out;
    out.wall_ms = spans.time(std::string(app->run_call()) + " " + label,
                             [&] { out = app->phase(steps); });
    // phase() fills everything but its own wall time.
    return out;
  };
  auto timed_snapshot = [&] {
    obs::Snapshot snap;
    const double ms = spans.time("MetricRegistry::snapshot", [&] {
      snap = rt->machine().metrics().snapshot();
    });
    s.snapshot_us.push_back(ms * 1e3);
    return snap;
  };

  // Boot (the Process fork happens inside the first run) and warm-up.
  const PhaseOut boot = timed_phase(1, "boot");
  const PhaseOut warm = timed_phase(spec.warmup_steps, "warm-up");
  const double est_ms = warm.wall_ms / warm.steps;
  s.boot_ms = boot.wall_ms - est_ms;
  s.total_steps = 1 + spec.warmup_steps;
  s.setup_s = ms_between(setup_origin, Clock::now()) / 1e3;

  const obs::Snapshot before = timed_snapshot();
  app->window_start();
  std::uint64_t trace_dropped = 0;
  const int window = spans.open("measured window");
  const auto t0 = Clock::now();
  const double wanted_steps =
      spec.steps_per_second > 0 ? budget_s * spec.steps_per_second
                                : budget_s * 1e3 / std::max(est_ms, 1e-3);
  if (phase_steps == 0) {
    const auto steps = static_cast<std::int32_t>(std::clamp<double>(
        std::round(wanted_steps), spec.min_steps, kMaxSteps));
    for (int k = 0; k < kMeasuredPhases; ++k) {
      s.phases.push_back(
          timed_phase(std::max(1, steps / kMeasuredPhases), "measured"));
      app->window_phase_done();
    }
  } else {
    const double fixed_phases =
        spec.steps_per_second > 0
            ? std::max(1.0, std::round(wanted_steps / phase_steps))
            : 0.0;
    do {
      s.phases.push_back(timed_phase(phase_steps, "measured"));
      app->window_phase_done();
      if (traced) {
        spans.time("Machine::trace", [&] { s.trace = rt->machine().trace(); });
        trace_dropped = std::max(trace_dropped,
                                 timed_snapshot().counter("trace.dropped"));
      }
    } while (fixed_phases > 0
                 ? static_cast<double>(s.phases.size()) < fixed_phases
                 : ms_between(t0, Clock::now()) < budget_s * 1e3);
  }
  // A dropped event would leave a hole in the per-layer numbers.
  if (traced) s.checks.push_back(check_equal("trace.dropped", trace_dropped, 0));
  s.window_wall_ms = ms_between(t0, Clock::now());
  spans.close(window);
  s.after = timed_snapshot();
  s.delta = s.after.diff(before);
  for (const PhaseOut& p : s.phases) s.window_steps += p.steps;
  s.total_steps += s.window_steps;

  app->capture(spans);
  // Teardown stops and reaps forked PEs, so their peak RSS is readable.
  spans.time("teardown", [&] { rt.reset(); });
  s.peak_rss_mib = peak_rss_mib();
  spans.time("reference check", [&] {
    app->verify(s.total_steps, s.window_steps, s.checks);
  });
  s.reference_ms_per_step =
      app->reference_ms / static_cast<double>(app->reference_steps);
  spans.close(root);
  return s;
}

void account(Report& rep, const Run& s) {
  rep.attempted += static_cast<std::uint64_t>(s.total_steps);
  if (!s.ok()) {
    rep.failed += static_cast<std::uint64_t>(s.total_steps);
    rep.correct = false;
  }
  rep.checks.insert(rep.checks.end(), s.checks.begin(), s.checks.end());
}

// -- per-layer numbers from the traced run -------------------------------------------

struct TraceNumbers {
  double busy_ns = 0.0, pe_ns = 0.0;  ///< Σ busy, Σ window × PEs
  double wan_entries = 0.0;
  double quiescence_ms_sum = 0.0;
  std::vector<double> entry_us;
  obs::Json windows = obs::Json::array();
};

/// Summarize the traced run's measured phases, each between its two
/// phase markers, with core::summarize_trace.
TraceNumbers summarize_windows(const Run& s) {
  TraceNumbers t;
  for (const PhaseOut& p : s.phases) {
    sim::TimeNs open = -1, close = -1;
    for (const core::TraceEvent& e : s.trace) {
      if (e.kind != core::MsgKind::kPhaseMarker || e.entry != p.id) continue;
      if (open < 0) open = e.begin;
      close = e.begin;
    }
    if (open < 0 || close <= open) continue;
    std::vector<core::TraceEvent> window;
    sim::TimeNs last_end = open;
    for (const core::TraceEvent& e : s.trace) {
      if (e.kind == core::MsgKind::kPhaseMarker) continue;
      if (e.begin < open || e.begin >= close) continue;
      core::TraceEvent shifted = e;
      shifted.begin -= open;
      shifted.end = std::min(e.end, close) - open;
      window.push_back(shifted);
      last_end = std::max(last_end, e.end);
      t.entry_us.push_back(sim::to_us(e.end - e.begin));
    }
    const core::TraceReport rep =
        core::summarize_trace(window, s.topo, close - open);
    obs::Json per_pe = obs::Json::array();
    for (const core::PeUtilization& u : rep.per_pe) {
      t.busy_ns += static_cast<double>(u.busy);
      t.wan_entries += static_cast<double>(u.from_remote_cluster);
      obs::Json j = obs::Json::object();
      j.set("pe", static_cast<std::int64_t>(u.pe));
      j.set("busy_ms", sim::to_ms(u.busy));
      j.set("entries", u.entries);
      j.set("wan_entries", u.from_remote_cluster);
      j.set("utilization", u.utilization);
      per_pe.push(std::move(j));
    }
    t.pe_ns += static_cast<double>(close - open) * s.pes;
    const double quiescence_ms = p.app_elapsed >= 0
                                     ? sim::to_ms(p.elapsed - p.app_elapsed)
                                     : sim::to_ms(close - last_end);
    t.quiescence_ms_sum += quiescence_ms;
    obs::Json w = obs::Json::object();
    w.set("phase", static_cast<std::int64_t>(p.id));
    w.set("steps", static_cast<std::int64_t>(p.steps));
    w.set("begin_ms", sim::to_ms(open));
    w.set("end_ms", sim::to_ms(close));
    w.set("quiescence_ms", quiescence_ms);
    w.set("per_pe", std::move(per_pe));
    t.windows.push(std::move(w));
  }
  return t;
}

void write_file(const std::string& path, const obs::Json& j) {
  std::ofstream out(path);
  out << j.dump(1) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<Metric> layer_metrics(const Options& opt, const Spec& spec,
                                  const Run& plain, const Run& traced,
                                  SpanLog& spans) {
  const bool sim_clock = spec.backend == grid::Backend::kSim;
  const double steps = static_cast<double>(std::max<std::int64_t>(
      traced.window_steps, 1));
  const obs::Snapshot& d = traced.delta;
  auto per_step = [&](const char* counter) {
    return static_cast<double>(d.counter(counter)) / steps;
  };
  const TraceNumbers t = summarize_windows(traced);
  const double n_windows =
      static_cast<double>(std::max<std::size_t>(t.windows.size(), 1));
  const double plain_step = plain.step_ms(sim_clock);
  const double plain_wall_s = plain.window_wall_ms / 1e3;

  std::vector<Metric> m = {
      {"grid.make_machine_ms", traced.make_machine_ms, "ms"},
      {"core.create_arrays_ms", traced.create_arrays_ms, "ms"},
      {"core.boot_ms", traced.boot_ms, "ms"},
      {"core.msgs_per_step", per_step("rt.sched.msgs_executed"), "count"},
      {"core.busy_ms_per_step",
       sim::to_ms(static_cast<sim::TimeNs>(d.counter("rt.sched.busy_ns"))) /
           steps,
       "ms"},
      {"core.handoff_fallbacks_per_step",
       per_step("rt.sched.shard.handoff_fallbacks"), "count"},
      {"core.quiescence_ms", t.quiescence_ms_sum / n_windows, "ms"},
      {"core.pe_utilization", t.pe_ns > 0 ? t.busy_ns / t.pe_ns : 0.0,
       "ratio"},
      {"core.idle_ms_per_step",
       (t.pe_ns - t.busy_ns) / 1e6 / std::max(traced.pes, 1) / steps, "ms"},
      {"core.wan_entries_per_step", t.wan_entries / steps, "count"},
      {"core.entry_us_p50", quantile(t.entry_us, 0.50), "us"},
      {"core.entry_us_p99", quantile(t.entry_us, 0.99), "us"},
      {"net.data_frames_per_step", per_step("net.reliable.data_sent"),
       "count"},
      {"net.acks_per_step", per_step("net.reliable.acks_sent"), "count"},
      {"net.retransmits_per_step", per_step("net.reliable.retransmits"),
       "count"},
      {"net.duplicates_per_step",
       per_step("net.reliable.duplicates_suppressed"), "count"},
      {"net.bundles_per_step", per_step("net.coalesce.bundles_sent"),
       "count"},
      {"net.frames_saved_per_step", per_step("net.coalesce.frames_saved"),
       "count"},
      {"net.beats_per_step", per_step("net.heartbeat.beats_sent"), "count"},
      {"net.fault_drops_per_step", per_step("net.fault.dropped"), "count"},
      {"net.wan_ack_rtt_ms",
       traced.after.gauge("net.reliable.wan_ack_rtt_ns") / 1e6, "ms"},
      {"net.socket_partial_writes_per_step",
       per_step("fabric.socket.partial_writes"), "count"},
      // The DES layer exists only on the simulator workload.
      {"sim.wall_ms_per_step",
       sim_clock ? plain.window_wall_ms /
                       static_cast<double>(std::max<std::int64_t>(
                           plain.window_steps, 1))
                 : 0.0,
       "ms"},
      {"sim.msgs_per_wall_s",
       sim_clock && plain_wall_s > 0
           ? static_cast<double>(
                 plain.delta.counter("rt.sched.msgs_executed")) /
                 plain_wall_s
           : 0.0,
       "1/s"},
      {"obs.snapshot_us", median(traced.snapshot_us), "us"},
      {"apps.reference_ms_per_step", traced.reference_ms_per_step, "ms"},
      {"trace.overhead_pct",
       plain_step > 0 ? (traced.step_ms(sim_clock) - plain_step) /
                            plain_step * 100.0
                      : 0.0,
       "%"},
  };

  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  obs::Json summary = obs::Json::object();
  summary.set("workload", opt.workload);
  summary.set("seed", opt.seed);
  summary.set("trace_events", static_cast<std::uint64_t>(traced.trace.size()));
  summary.set("windows", t.windows);
  obs::Json metrics = obs::Json::object();
  for (const Metric& x : m) metrics.set(x.name, x.value);
  summary.set("metrics", std::move(metrics));
  write_file(stem + ".trace_summary.json", summary);
  write_file(stem + ".spans.json", spans.to_json());
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stencil-thread", "leanmd-process", "cmfd-sim-lossy"};
  return names;
}

Report run_workload(const Options& opt) {
  const Spec spec = make_spec(opt);
  const bool sim_clock = spec.backend == grid::Backend::kSim;
  SpanLog spans(opt.process_start);
  Report rep;
  if (!opt.trace) {
    const Run s =
        run_once(spec, false, opt.seconds, 0, opt.process_start, spans);
    account(rep, s);
    const double steps =
        static_cast<double>(std::max<std::int64_t>(s.window_steps, 1));
    double wan = 0.0;
    for (const PhaseOut& p : s.phases) wan += static_cast<double>(p.wan_frames);
    rep.metrics = {
        {"step_ms", s.step_ms(sim_clock), "ms"},
        {"wan_frames_per_step", wan / steps, "count"},
        {"setup_s", s.setup_s, "s"},
        {"peak_rss_mib", s.peak_rss_mib, "MiB"},
    };
    return rep;
  }
  // Traced: an untraced run and a traced one with the same phase length
  // and budget, so their step times differ only by tracing (on the
  // simulator they run the same phases and must agree exactly).
  const Run plain = run_once(spec, false, 0.4 * opt.seconds,
                             spec.trace_phase_steps, Clock::now(), spans);
  const Run traced = run_once(spec, true, 0.4 * opt.seconds,
                              spec.trace_phase_steps, Clock::now(), spans);
  account(rep, plain);
  account(rep, traced);
  rep.metrics = layer_metrics(opt, spec, plain, traced, spans);
  return rep;
}

}  // namespace wanbench
