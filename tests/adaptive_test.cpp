// Adaptive-transport tier: the online feedback controller against the
// deterministic machines. The contract under test:
//
//  * Convergence — a link that degrades mid-run drags the RTT estimate
//    up, and the flush window follows to the statically-optimal value
//    for the *new* latency.
//  * Stability — on a link that never drifts, the converged knobs ARE
//    the statically-derived knobs, so the controller observes forever
//    and retunes never.
//  * Safety — no retune may widen the failure-detection window: every
//    flush-window target is clamped to half the heartbeat period, and
//    the clamp binding is visible in the decision counters.
//  * Determinism — adaptation composed with loss, crashes, and
//    partitions replays bit-identically under the DES machine, and the
//    decision logic itself (sample()) is a pure function of the
//    snapshot sequence, so SimMachine- and ThreadMachine-hosted
//    controllers fed identical snapshots decide identically.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"
#include "net/adaptive.hpp"
#include "net/coalesce.hpp"
#include "net/heartbeat.hpp"
#include "net/reliable.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mdo;
using core::Index;
using core::Runtime;

struct StencilRun {
  std::vector<double> mesh;
  sim::TimeNs virtual_end = 0;
  net::AdaptiveController::Counters counters;
  sim::TimeNs final_window = 0;
};

StencilRun run_adaptive_stencil(const grid::Scenario& s, int steps,
                                sim::TimeNs horizon) {
  auto machine = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  Runtime rt(std::move(machine));
  apps::stencil::Params p;
  p.mesh = 16;
  p.objects = 16;
  p.real_compute = true;
  apps::stencil::StencilApp app(rt, p);
  if (sim->reliability().heartbeat != nullptr) {
    sim->reliability().heartbeat->watch(horizon);
  }
  net::AdaptiveController* ctl = sim->adaptive();
  EXPECT_NE(ctl, nullptr);
  ctl->start(horizon);
  app.run_steps(steps);
  EXPECT_EQ(sim->reliability().reliable->counters().flows_abandoned, 0u);
  StencilRun out;
  out.mesh = app.gather_mesh();
  out.virtual_end = rt.now();
  out.counters = ctl->counters();
  out.final_window = ctl->flush_window();
  return out;
}

TEST(AdaptiveSim, FixedLinkConvergesToStaticKnobsAndHoldsStill) {
  // The stability half of the contract: the controller starts from the
  // statically-derived window (an eighth of the one-way latency), and on
  // a link that never drifts its own RTT-driven target lands inside the
  // hysteresis band of that same value — so after warmup it must never
  // retune anything.
  grid::Scenario s =
      grid::Scenario::artificial(6, sim::milliseconds(4.0)).with_adaptation();
  const sim::TimeNs static_window = s.coalesce.flush_timeout;
  EXPECT_EQ(static_window, sim::microseconds(500.0));

  StencilRun run = run_adaptive_stencil(s, 8, sim::milliseconds(400.0));

  EXPECT_GT(run.counters.samples, net::AdaptiveController::kWarmupSamples);
  EXPECT_EQ(run.counters.retunes_total, 0u);
  EXPECT_EQ(run.counters.window_widened, 0u);
  EXPECT_EQ(run.counters.window_narrowed, 0u);
  EXPECT_EQ(run.counters.queue_relief, 0u);
  EXPECT_EQ(run.final_window, static_window);
}

TEST(AdaptiveSim, LinkDegradationWidensWindowToNewStaticOptimum) {
  // 4 ms -> 16 ms mid-run: the statically-derived 500 us window is now
  // an eighth of *nothing*. The observed-RTT target for the degraded
  // link is 16 ms / 8 = 2 ms, clamped to the 1 ms bound — exactly the
  // window with_coalescing() would derive statically for a 16 ms link.
  grid::Scenario s =
      grid::Scenario::artificial(6, sim::milliseconds(4.0)).with_adaptation();
  s.with_link_drift(0, 1, sim::milliseconds(30.0), sim::milliseconds(16.0));
  s.with_link_drift(1, 0, sim::milliseconds(30.0), sim::milliseconds(16.0));
  // Keep retransmission out of the picture: the static RTO (sized for
  // 4 ms) would fire spuriously at 32 ms RTT and pollute the run.
  s.reliable.rto_initial = sim::milliseconds(80.0);
  s.reliable.give_up_budget = 24 * s.reliable.rto_initial;

  // Enough post-drift steps that the EWMA fully absorbs the new RTT
  // (each degraded step supplies fresh ack intervals).
  StencilRun run = run_adaptive_stencil(s, 24, sim::seconds(2.0));

  EXPECT_GE(run.counters.window_widened, 1u);
  EXPECT_GE(run.counters.retunes_total, 1u);
  // Converged within the hysteresis dead band of the new static optimum:
  // the controller deliberately stops chasing a target within 25% of the
  // current window, so "converged" means [optimum / (1 + h), optimum].
  const auto optimum = sim::milliseconds(1.0);
  EXPECT_EQ(optimum, s.adaptive.max_flush_window);
  EXPECT_LE(run.final_window, optimum);
  constexpr double h = net::AdaptiveController::kHysteresis;
  EXPECT_GE(run.final_window, static_cast<sim::TimeNs>(
                                  static_cast<double>(optimum) / (1.0 + h)));
}

TEST(AdaptiveSim, RetuneNeverWidensDetectionWindow) {
  // The latent clamp interaction, locked in: a 10x link degradation
  // pushes the raw window target (5 ms) past both the configured bound
  // (raised to 4 ms here so only the detector can stop it) and the
  // failure detector's half-period ceiling (2.5 ms). The retune must be
  // clamped to the detector bound — globally and per directed pair —
  // and the detector itself must see nothing.
  grid::Scenario s = grid::Scenario::artificial(6, sim::milliseconds(4.0))
                         .with_crashes()
                         .with_adaptation();
  s.adaptive.max_flush_window = sim::milliseconds(4.0);
  s.with_link_drift(0, 1, sim::milliseconds(30.0), sim::milliseconds(40.0));
  s.with_link_drift(1, 0, sim::milliseconds(30.0), sim::milliseconds(40.0));
  // Detector and RTO must tolerate the drifted latency (static sizing
  // deliberately does not see drifts): this test is about the flush
  // window, not detector mis-sizing.
  s.heartbeat.timeout = sim::milliseconds(120.0);
  s.heartbeat.confirm_window = sim::milliseconds(240.0);
  s.reliable.rto_initial = sim::milliseconds(120.0);
  s.reliable.give_up_budget = 24 * s.reliable.rto_initial;

  auto machine = grid::make_machine(s);
  auto* sim = static_cast<core::SimMachine*>(machine.get());
  Runtime rt(std::move(machine));
  apps::stencil::Params p;
  p.mesh = 16;
  p.objects = 16;
  p.real_compute = true;
  apps::stencil::StencilApp app(rt, p);
  net::HeartbeatDevice* hb = sim->reliability().heartbeat;
  net::CoalesceDevice* co = sim->coalesce();
  net::AdaptiveController* ctl = sim->adaptive();
  ASSERT_NE(hb, nullptr);
  ASSERT_NE(co, nullptr);
  ASSERT_NE(ctl, nullptr);
  hb->watch(sim::seconds(4.0));
  ctl->start(sim::seconds(4.0));
  app.run_steps(20);

  const sim::TimeNs detector_bound = s.heartbeat.period / 2;
  EXPECT_EQ(ctl->detector_clamp(), detector_bound);
  EXPECT_GE(ctl->counters().window_widened, 1u);
  EXPECT_GE(ctl->counters().window_clamped_detector, 1u);
  EXPECT_EQ(ctl->flush_window(), detector_bound);
  // Per-directed-pair windows obey the same ceiling (nodes 0 and 3 sit
  // in different clusters under this 6-PE / 2-cluster layout).
  EXPECT_LE(co->flush_timeout_for(0, 3), detector_bound);
  EXPECT_LE(co->flush_timeout_for(3, 0), detector_bound);
  // The detection window itself never regressed: no suspicion, no
  // deaths, no abandoned flows across the 10x degradation.
  EXPECT_EQ(hb->counters().suspects_raised, 0u);
  EXPECT_EQ(hb->counters().peers_declared_dead, 0u);
  EXPECT_EQ(sim->reliability().reliable->counters().flows_abandoned, 0u);
}

StencilRun run_composed_chaos() {
  grid::Scenario s = grid::Scenario::artificial(6, sim::milliseconds(4.0))
                         .with_clusters(3)
                         .with_loss(0.02, 7)
                         .with_crashes()
                         .with_adaptation();
  s.with_partitions(/*seed=*/42, /*count=*/6,
                    /*mean_len=*/sim::milliseconds(10.0),
                    /*horizon=*/sim::milliseconds(200.0));
  s.with_link_drift(0, 1, sim::milliseconds(60.0), sim::milliseconds(12.0));
  s.with_link_drift(1, 0, sim::milliseconds(60.0), sim::milliseconds(12.0));
  s.reliable.rto_initial = sim::milliseconds(40.0);
  s.reliable.give_up_budget = 24 * s.reliable.rto_initial;
  StencilRun run = run_adaptive_stencil(s, 6, sim::seconds(1.0));
  return run;
}

TEST(AdaptiveSim, AdaptationComposedWithChaosReplaysBitIdentical) {
  // Adaptation + 2% loss + live failure detector + seeded partitions +
  // a mid-run latency drift, twice: the whole composition — mesh
  // results, virtual end time, and every controller decision counter —
  // must replay bit-identically.
  StencilRun a = run_composed_chaos();
  StencilRun b = run_composed_chaos();

  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.final_window, b.final_window);
  ASSERT_EQ(a.mesh.size(), b.mesh.size());
  for (std::size_t i = 0; i < a.mesh.size(); ++i) {
    ASSERT_EQ(a.mesh[i], b.mesh[i]) << "cell " << i;
  }
  EXPECT_GT(a.counters.samples, 0u);
}

// -- backend parity ---------------------------------------------------------

obs::MetricValue hist(std::uint64_t count, double mean) {
  obs::MetricValue m;
  m.kind = obs::MetricValue::Kind::kHistogram;
  m.count = count;
  m.value = mean;
  return m;
}

obs::MetricValue counter(std::uint64_t v) {
  obs::MetricValue m;
  m.kind = obs::MetricValue::Kind::kCounter;
  m.count = v;
  return m;
}

obs::MetricValue gauge(double v) {
  obs::MetricValue m;
  m.kind = obs::MetricValue::Kind::kGauge;
  m.value = v;
  return m;
}

/// A scripted observation: cumulative registry values as the devices
/// would publish them.
struct Obs {
  std::uint64_t rtt_count;
  double rtt_mean;
  std::uint64_t data_sent;
  std::uint64_t retransmits;
  double queue_depth;
  std::uint64_t bytes_saved;
  std::uint64_t wan_bytes;
};

obs::Snapshot to_snapshot(const Obs& o) {
  obs::Snapshot s;
  s.values["net.reliable.wan_ack_rtt_ns"] = hist(o.rtt_count, o.rtt_mean);
  s.values["net.reliable.data_sent"] = counter(o.data_sent);
  s.values["net.reliable.retransmits"] = counter(o.retransmits);
  s.values["net.coalesce.pending_packets"] = gauge(o.queue_depth);
  s.values["net.compress.bytes_saved"] = counter(o.bytes_saved);
  s.values["fabric.wan_bytes"] = counter(o.wan_bytes);
  return s;
}

/// A synthetic run: RTT ramps 8 ms -> 32 ms, a loss burst, a queue
/// spike, and a compression-ratio collapse — every control loop fires.
std::vector<Obs> scripted_observations() {
  std::vector<Obs> seq;
  std::uint64_t rtt_count = 0;
  double rtt_sum = 0.0;
  std::uint64_t data = 0, retx = 0, saved = 0, wire = 0;
  for (int i = 0; i < 40; ++i) {
    const double rtt = i < 12 ? sim::milliseconds(8.0)
                              : sim::milliseconds(32.0);  // degradation
    rtt_count += 4;
    rtt_sum += 4 * rtt;
    data += 100;
    retx += (i >= 20 && i < 26) ? 5 : 0;        // 5% loss burst
    const double queue = (i == 30) ? 400.0 : 8.0;  // one deep spike
    wire += 100 * 1024;
    saved += (i < 16) ? 20 * 1024 : 0;          // ratio collapses at 16
    seq.push_back({rtt_count, rtt_sum / static_cast<double>(rtt_count), data,
                   retx, queue, saved, wire});
  }
  return seq;
}

TEST(AdaptiveParity, SimAndThreadControllersDecideIdentically) {
  // sample() is a pure function of the snapshot sequence: the SimMachine
  // and ThreadMachine installations (different fabrics, different timer
  // implementations) fed the same scripted observations must produce
  // bit-identical decision counters and knob values at every step.
  grid::Scenario s = grid::Scenario::artificial(4, sim::milliseconds(4.0))
                         .with_adaptation()
                         .with_compression()
                         .with_striping(4, 8192);
  auto sim_machine = grid::make_machine(s);
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  auto thread_machine = grid::make_machine(s, grid::Backend::kThread, cfg);
  net::AdaptiveController* a = sim_machine->adaptive();
  net::AdaptiveController* b = thread_machine->adaptive();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const std::vector<Obs> script = scripted_observations();
  for (std::size_t i = 0; i < script.size(); ++i) {
    const obs::Snapshot snap = to_snapshot(script[i]);
    a->sample(snap);
    b->sample(snap);
    ASSERT_TRUE(a->counters() == b->counters()) << "step " << i;
    ASSERT_EQ(a->flush_window(), b->flush_window()) << "step " << i;
    ASSERT_EQ(a->rails(), b->rails()) << "step " << i;
    ASSERT_EQ(a->compress_on(), b->compress_on()) << "step " << i;
    ASSERT_EQ(a->rtt_ewma_ns(), b->rtt_ewma_ns()) << "step " << i;
    // Knob invariants hold at every step, not just at the end.
    ASSERT_GE(a->flush_window(), net::AdaptiveController::kMinFlushWindow);
    ASSERT_LE(a->flush_window(), s.adaptive.max_flush_window);
    ASSERT_GE(a->rails(), net::AdaptiveController::kMinRails);
    ASSERT_LE(a->rails(), net::AdaptiveController::kMaxRails);
  }
  // The script exercised every loop: the degradation widened the
  // window, the loss burst narrowed the rails (and the calm widened
  // them back), the ratio collapse disabled compression (and the probe
  // re-enabled it), and the queue spike fired the relief valve.
  const auto& c = a->counters();
  EXPECT_GE(c.window_widened, 1u);
  EXPECT_GE(c.stripe_narrowed, 1u);
  EXPECT_GE(c.stripe_widened, 1u);
  EXPECT_GE(c.compress_disabled, 1u);
  EXPECT_GE(c.compress_enabled, 1u);
  EXPECT_GE(c.queue_relief, 1u);
}

// -- real-threads integration -----------------------------------------------

struct Poke : core::Chare {
  std::int64_t value = 0;
  void add(std::int64_t by) { value += by; }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | value;
  }
};

TEST(AdaptiveThread, ControllerSamplesLiveTrafficAndHoldsKnobsInBounds) {
  // Real-threads end, deliberately weak timing (sanitizers deschedule
  // arbitrarily): the controller's ticker runs on the dispatcher thread
  // against live traffic; knobs must stay in bounds and nothing may be
  // abandoned. No convergence assertion — wall-clock RTTs are noisy.
  grid::Scenario s =
      grid::Scenario::artificial(4, sim::milliseconds(1.0)).with_adaptation();
  core::MachineOptions cfg;
  cfg.emulate_charge = false;
  auto machine = grid::make_machine(s, grid::Backend::kThread, cfg);
  auto* tm = static_cast<core::ThreadMachine*>(machine.get());
  Runtime rt(std::move(machine));
  auto proxy = rt.create_array<Poke>(
      "pokes", core::indices_1d(4), core::round_robin_map(4),
      [](const Index&) { return std::make_unique<Poke>(); });
  net::AdaptiveController* ctl = tm->adaptive();
  ASSERT_NE(ctl, nullptr);

  ctl->start(sim::seconds(2.0));
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) proxy.send<&Poke::add>(Index(i), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  rt.run();

  EXPECT_EQ(proxy.local(Index(3))->value, 10);
  EXPECT_GE(ctl->counters().samples, 1u);
  EXPECT_GE(ctl->flush_window(), net::AdaptiveController::kMinFlushWindow);
  EXPECT_LE(ctl->flush_window(), s.adaptive.max_flush_window);
  EXPECT_EQ(tm->reliability().reliable->counters().flows_abandoned, 0u);
}

}  // namespace
