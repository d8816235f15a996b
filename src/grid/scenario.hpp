#pragma once
// Scenario: one experimental environment of the paper, §5.1.
//
//  * kArtificial — the "simulated Grid environment": both halves of the
//    allocation live in one physical cluster (Myrinet links everywhere)
//    and a VMI delay device injects a chosen one-way latency between the
//    halves. Sweeping that knob produces Figures 3 and 4.
//  * kRealGrid  — the NCSA↔ANL TeraGrid co-allocation: genuine WAN link
//    parameters with jitter and per-direction contention, no delay
//    device. Produces the "Real Latency" columns of Tables 1 and 2.
//  * kLocal     — a single cluster (baseline/serial calibration runs).

#include <algorithm>
#include <memory>

#include "core/process_machine.hpp"
#include "core/sim_machine.hpp"
#include "core/thread_machine.hpp"
#include "grid/calibration.hpp"

namespace mdo::grid {

/// Execution backend a Scenario is realized on. All three run the same
/// runtime, device chain, trace schema, and metric sources; they differ
/// in what a PE physically is and what clock drives it.
enum class Backend {
  kSim,      ///< virtual-time discrete-event simulation (deterministic)
  kThread,   ///< one OS thread per PE, shared address space, wall clock
  kProcess,  ///< one forked OS process per PE over Unix-domain sockets
};

struct Scenario {
  enum class Mode { kArtificial, kRealGrid, kLocal };

  std::size_t pes = 2;                  ///< split evenly across `clusters`
  Mode mode = Mode::kArtificial;
  Backend backend = Backend::kSim;      ///< default for make_machine(s)
  std::size_t clusters = 2;             ///< WAN sites (ignored under kLocal)
  sim::TimeNs artificial_one_way = 0;   ///< the delay-device knob
  bool tracing = false;

  /// One explicit per-directed-pair WAN link override; pairs without an
  /// override get the synthesized distance-scaled default (see topology()).
  struct WanLink {
    net::ClusterId src = 0;
    net::ClusterId dst = 0;
    net::LinkParams params;
  };
  std::vector<WanLink> wan_links;

  /// Lossy-WAN knobs: when faults.any(), machines install the full
  /// reliability stack (reliable + checksum + fault devices) instead of a
  /// bare delay device, and the fault device sits between them.
  net::FaultConfig faults;
  net::ReliableConfig reliable;

  /// Failure-detector knob: when heartbeat.enabled, the reliability stack
  /// is installed (even with zero loss) with a HeartbeatDevice between
  /// the reliable and checksum devices.
  net::HeartbeatConfig heartbeat;

  /// Message-coalescing knob: when coalesce.enabled, small cross-cluster
  /// packets are bundled into fewer, larger wire frames (MPICH-G2 /
  /// MPWide style). Installed at the top of the chain — above the
  /// reliability stack when one is present, above the bare delay device
  /// otherwise — and flushed by thresholds, a latency-sized timer, and
  /// the machines' scheduler-idle callback.
  net::CoalesceConfig coalesce;

  /// Payload-transform knobs: when enabled, the reliability stack gains
  /// a compression / striping device between coalesce and reliable (so
  /// whole bundles are transformed and each fragment is one reliable
  /// frame). Enabling either implies the stack installs.
  net::CompressionConfig compression;
  net::StripingConfig striping;

  /// Adaptive-transport knob: when adaptive.enabled, machines install an
  /// AdaptiveController chain device that periodically samples the net
  /// metrics and retunes the coalesce flush window (globally and per
  /// directed cluster pair), the striping width, and the compression
  /// on/off choice. Implies the reliability stack (RTT comes from acks)
  /// and coalescing (the primary knob). Arm it per phase with
  /// machine->adaptive()->start(horizon).
  net::AdaptiveConfig adaptive;

  /// Force the full reliability stack even with zero loss and no
  /// detector — static baselines comparable frame-for-frame with
  /// adaptive runs (acks and framing included in both).
  bool force_reliability = false;

  /// One scheduled mid-run change of a directed WAN link's one-way
  /// latency (artificial mode: realized as a delay-device retarget at
  /// virtual/wall time `at`). The *static* link table — and every
  /// detector/RTO window sized from it — is untouched: drifts are what
  /// the adaptive controller exists to chase.
  struct LinkDrift {
    net::ClusterId src = 0;
    net::ClusterId dst = 0;
    sim::TimeNs at = 0;
    sim::TimeNs latency = 0;
  };
  std::vector<LinkDrift> link_drifts;

  // -- entry points --------------------------------------------------------
  static Scenario artificial(std::size_t pes, sim::TimeNs one_way) {
    Scenario s;
    s.pes = pes;
    s.mode = Mode::kArtificial;
    s.artificial_one_way = one_way;
    return s;
  }
  static Scenario real_grid(std::size_t pes, std::size_t n_clusters = 2) {
    Scenario s;
    s.pes = pes;
    s.mode = Mode::kRealGrid;
    s.clusters = n_clusters;
    return s;
  }
  static Scenario local(std::size_t pes) {
    Scenario s;
    s.pes = pes;
    s.mode = Mode::kLocal;
    return s;
  }

  /// Base one-way WAN latency of the nearest cluster pair: the
  /// delay-device knob under kArtificial, the calibrated WAN link under
  /// kRealGrid. Farther pairs scale up from this (see topology()).
  sim::TimeNs effective_one_way() const {
    return mode == Mode::kRealGrid ? kWanLatency : artificial_one_way;
  }

  /// The cluster/node layout plus the full per-directed-pair WAN link
  /// table this scenario runs on. Two clusters reproduce the paper's
  /// layout exactly; N > 2 clusters get distance-scaled defaults
  /// (latency grows 50% of base per extra hop of cluster distance, so
  /// the sites are not all equidistant), with wan_links overrides
  /// applied last.
  net::Topology topology() const;

  /// Worst one-way latency over the WAN links this topology can use.
  /// Failure-detector, retransmission, and coalescing windows size
  /// against this, never against a single global constant.
  sim::TimeNs max_one_way() const;

  // -- fluent builder ------------------------------------------------------
  // Each with_* returns *this so environments compose left to right:
  //   Scenario::artificial(pes, one_way)
  //       .with_loss(0.02, seed)
  //       .with_crashes()
  //       .with_coalescing()
  //       .with_tracing();
  // Order-insensitive: every knob that depends on another (RTO on
  // latency, flush window on the heartbeat period) is re-derived by the
  // later call.

  /// Lossy WAN: drop probability `drop` per wire frame, deterministic
  /// under `seed`; machines install the full reliability stack. Each
  /// flow times out on its own measured round trip once acks have
  /// sampled it (net/reliable.hpp); until then it waits one round trip
  /// of the slowest link (see size_rto), so a first frame is not resent
  /// while its ack is still on the way.
  Scenario& with_loss(double drop, std::uint64_t seed = 1) {
    faults.drop = drop;
    faults.seed = seed;
    size_rto();
    return *this;
  }

  /// Node-crash tolerance: heartbeat failure detector plus a bounded
  /// retransmission budget, both sized to the WAN latency. The detector
  /// timeout (silence -> suspect) tolerates a full round trip plus three
  /// consecutively lost beats, so a 32 ms one-way latency is never
  /// misread as a death; the confirm window (suspect -> confirmed dead)
  /// additionally covers the worst-case four-hop indirect probe round
  /// trip (monitor -> relay -> suspect -> relay -> monitor) so a mere
  /// partition can be refuted before recovery fires. The time-based
  /// give-up budget (see size_rto) keeps flows to a genuinely dead peer
  /// abandoned in bounded time.
  Scenario& with_crashes() {
    size_rto();
    heartbeat.enabled = true;
    heartbeat.period = sim::milliseconds(5.0);
    heartbeat.timeout = 2 * max_one_way() + 4 * heartbeat.period;
    heartbeat.confirm_window = 4 * max_one_way() + 4 * heartbeat.period;
    clamp_flush_window();
    return *this;
  }

  /// Message coalescing: small cross-cluster packets bundle into fewer
  /// wire frames. The backstop flush timer is sized from the link table
  /// — an eighth of the worst one-way WAN latency, clamped to
  /// [100 us, 1 ms] — and, when the failure detector is on, to at most
  /// half a heartbeat period so bundling can never widen the detection
  /// window.
  Scenario& with_coalescing() {
    coalesce.enabled = true;
    coalesce.flush_timeout = std::clamp<sim::TimeNs>(
        max_one_way() / 8, sim::microseconds(100.0),
        sim::milliseconds(1.0));
    clamp_flush_window();
    return *this;
  }

  /// Adaptive WAN transport: an online controller retunes the coalesce
  /// flush window (plus striping width and compression choice when those
  /// devices are on) from observed RTT, loss, and queue depth. Implies
  /// coalescing and the reliability stack; composes with loss, crashes,
  /// and partitions. The controller starts from the statically-derived
  /// knobs, so on a link that never drifts it observes and holds still.
  Scenario& with_adaptation() {
    adaptive.enabled = true;
    if (!coalesce.enabled) with_coalescing();
    size_rto();
    return *this;
  }

  /// Install the full reliability stack even with zero injected loss —
  /// the fair static baseline for adaptive comparisons (same acks, same
  /// framing on the wire).
  Scenario& with_reliability() {
    force_reliability = true;
    size_rto();
    return *this;
  }

  /// RLE compression of cross-cluster payloads (whole bundles when
  /// coalescing is on). Implies the reliability stack.
  Scenario& with_compression(double cpu_ns_per_byte = 0.35) {
    compression.enabled = true;
    compression.cpu_ns_per_byte = cpu_ns_per_byte;
    size_rto();
    return *this;
  }

  /// Stripe large payloads into `rails` independently-traveling
  /// fragments. Implies the reliability stack (each fragment is one
  /// reliable frame).
  Scenario& with_striping(std::size_t rails = 4,
                          std::size_t min_bytes = 8192) {
    striping.enabled = true;
    striping.rails = rails;
    striping.min_bytes = min_bytes;
    size_rto();
    return *this;
  }

  /// Schedule a mid-run one-way-latency change on the directed link
  /// src -> dst at fabric time `at` (artificial mode only: retargets the
  /// delay device). Static sizing (detector, RTO, initial flush window)
  /// deliberately does NOT see drifts.
  Scenario& with_link_drift(net::ClusterId src, net::ClusterId dst,
                            sim::TimeNs at, sim::TimeNs latency) {
    link_drifts.push_back({src, dst, at, latency});
    return *this;
  }

  /// Diurnal (square-wave) latency on the symmetric cluster pair a<->b:
  /// starting from the static latency, the link flips to `high` at
  /// half_period, back to `low` at 2*half_period, and so on until
  /// `horizon` — the bursty/changing-latency environment where a static
  /// flush window must lose to an adaptive one at one end of the wave.
  Scenario& with_diurnal_link(net::ClusterId a, net::ClusterId b,
                              sim::TimeNs low, sim::TimeNs high,
                              sim::TimeNs half_period, sim::TimeNs horizon) {
    bool high_phase = true;
    for (sim::TimeNs at = half_period; at < horizon; at += half_period) {
      const sim::TimeNs latency = high_phase ? high : low;
      link_drifts.push_back({a, b, at, latency});
      link_drifts.push_back({b, a, at, latency});
      high_phase = !high_phase;
    }
    return *this;
  }

  /// Entry-interval tracing on the built machine (both machine kinds).
  Scenario& with_tracing(bool on = true) {
    tracing = on;
    return *this;
  }

  /// Spread the allocation across `n` WAN sites instead of two. Re-derives
  /// every latency-sized knob already set, so builder order stays free.
  Scenario& with_clusters(std::size_t n) {
    clusters = n;
    rederive();
    return *this;
  }

  /// Override the directed WAN link src -> dst (a heterogeneous grid:
  /// links may differ by 10x and the detector/coalescing windows must
  /// follow the worst one). Re-derives latency-sized knobs.
  Scenario& with_wan_link(net::ClusterId src, net::ClusterId dst,
                          sim::TimeNs latency,
                          double bytes_per_us = kWanBytesPerUs) {
    wan_links.push_back({src, dst, net::LinkParams{latency, bytes_per_us}});
    rederive();
    return *this;
  }

  /// One scheduled partition: the directed src -> dst cluster link drops
  /// every frame during [start, start + duration), then heals. Machines
  /// install the full reliability stack (partitions count as faults).
  Scenario& with_partition(net::ClusterId src, net::ClusterId dst,
                           sim::TimeNs start, sim::TimeNs duration) {
    faults.partitions.push_back({src, dst, start, start + duration});
    return *this;
  }

  /// A seeded schedule of `count` random directed-link partitions with
  /// mean length `mean_len`, start times spread over [0, horizon).
  /// Deterministic per seed, so chaos runs replay bit-identically.
  Scenario& with_partitions(std::uint64_t seed, std::size_t count,
                            sim::TimeNs mean_len, sim::TimeNs horizon);

  /// Pick the execution backend make_machine(scenario) builds. Purely a
  /// default — make_machine's explicit backend argument overrides it.
  Scenario& with_backend(Backend b) {
    backend = b;
    return *this;
  }

 private:
  /// The static half of retransmission sizing, from the link table
  /// (used by loss and crash knobs; idempotent, so builder order does not
  /// matter). rto_initial is a flow's RTO only until its first RTT
  /// sample: one round trip of the slowest link plus 1 ms, at least
  /// 2 ms. The give-up budget is 24 of those, time-based so LAN and
  /// 10x-latency WAN links abandon unreachable flows after the same
  /// multiple of the worst round trip (about five backed-off timeouts at
  /// backoff 2.0). It stays on the static table on purpose: 24 live RTOs
  /// of a SAN flow last about 24 ms, which an ordinary host stall on
  /// Thread or Process outlasts.
  void size_rto() {
    reliable.rto_initial = std::max<sim::TimeNs>(
        2 * max_one_way() + sim::milliseconds(1.0),
        sim::milliseconds(2.0));
    reliable.give_up_budget = 24 * reliable.rto_initial;
  }
  /// Keep the coalescing flush window under half a heartbeat period
  /// whenever both knobs are on, regardless of which was set first.
  void clamp_flush_window() {
    if (coalesce.enabled && heartbeat.enabled) {
      coalesce.flush_timeout =
          std::min(coalesce.flush_timeout, heartbeat.period / 2);
    }
  }
  /// Re-derive every latency-sized knob after the link geometry changed
  /// (with_clusters / with_wan_link may run after with_crashes etc.).
  void rederive() {
    size_rto();
    if (heartbeat.enabled) {
      heartbeat.timeout = 2 * max_one_way() + 4 * heartbeat.period;
      heartbeat.confirm_window = 4 * max_one_way() + 4 * heartbeat.period;
    }
    if (coalesce.enabled) {
      coalesce.flush_timeout = std::clamp<sim::TimeNs>(
          max_one_way() / 8, sim::microseconds(100.0), sim::milliseconds(1.0));
      clamp_flush_window();
    }
  }
};

/// Build the machine realizing `scenario` on `backend`. Every backend
/// gets the identical device chain (delay / reliability stack /
/// coalescing / adaptation per the scenario knobs), link-drift
/// schedules, idle-flush wiring, and tracing setup; `options` tunes the
/// wall-clock backends (ignored under kSim, which has its own virtual
/// clock and calibrated overhead charging).
std::unique_ptr<core::Machine> make_machine(const Scenario& scenario,
                                            Backend backend,
                                            core::MachineOptions options = {});

/// Backend taken from scenario.backend (see Scenario::with_backend).
inline std::unique_ptr<core::Machine> make_machine(
    const Scenario& scenario, core::MachineOptions options = {}) {
  return make_machine(scenario, scenario.backend, options);
}

}  // namespace mdo::grid
