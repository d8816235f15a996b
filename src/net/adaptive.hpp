#pragma once
// Adaptive WAN transport: an online feedback controller over the metric
// registry. The WAN devices were tuned statically per scenario — the
// coalescing flush window an eighth of the worst one-way latency, the
// striping width and compression choice fixed at construction — so a
// link whose RTT, loss, or payload mix drifts mid-run loses the latency
// masking the runtime exists to provide. MPWide makes the same point for
// grid message layers: streams must be sized and paced per path, online.
//
// The controller is installed as a *chain controller*: a pass-through
// FilterDevice (it never touches a packet) whose only reason to sit in
// the chain is the DeviceHost binding — fabric timers under a SimFabric
// are deterministic engine events, and under a SocketFabric they run on
// the network thread that already owns the chain mutex, so every knob
// mutation is serialized against the sends that read the knobs.
//
// Each sample period the controller snapshots a *private* registry fed
// only by fabric-context sources (the net devices and the fabric frame
// counters — never the cross-thread rt.* sources of the machine's main
// registry) and feeds the snapshot to sample(), a deterministic decision
// step:
//
//  * RTT — the interval mean of the reliable device's ack RTT histogram
//    drives an EWMA; the flush-window target is ewma/2/8 (the same
//    "eighth of one-way latency" rule Scenario uses statically, so on a
//    fixed link the converged window *is* the static window and the
//    controller holds still). Per-directed-cluster-pair windows scale
//    each link's static latency by the observed drift.
//  * Loss — interval retransmits / data frames. High loss narrows the
//    striping width (each striped payload is `rails` reliable frames
//    that must all survive); when loss subsides the width recovers
//    toward its configured baseline.
//  * Compression ratio — interval bytes_saved against wire bytes; a
//    ratio below the floor disables the encoder (stored-block framing,
//    zero CPU), with a periodic re-probe so a payload mix that becomes
//    compressible again is noticed.
//  * Queue depth — the coalesce pending-packet gauge past its bound
//    halves the flush window (relief valve: a window so wide the
//    buffers grow is hurting, whatever the RTT says).
//
// Every decision passes a hysteresis dead band (a target within
// kHysteresis of the current value is noise, not a trend) and a
// per-knob cooldown counted in *samples* (not time, so SimMachine and
// ThreadMachine controllers fed the same snapshots decide identically).
// A widened flush window re-checks the failure-detector clamp — at most
// half the heartbeat period, captured from the installed stack — so no
// retune can ever widen the detection window (tests/adaptive_test.cpp
// locks this in).
//
// Decisions are visible: counters/gauges under `net.adaptive.*` in the
// machine's main registry (net/metrics.hpp), so a snapshot diff shows
// exactly which knob moved and why it was held.

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "net/device.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace mdo::net {

class Fabric;
class CoalesceDevice;
class CompressionDevice;
class StripingDevice;
class ReliableDevice;
struct ReliabilityStack;

struct AdaptiveConfig {
  bool enabled = false;  ///< gates installation in Scenario machines
  /// Cadence of the sampling ticker armed by start().
  sim::TimeNs sample_period = sim::milliseconds(2.0);
  /// Upper flush-window bound; the default mirrors
  /// Scenario::with_coalescing's static clamp so "converged" and
  /// "statically optimal" coincide.
  sim::TimeNs max_flush_window = sim::milliseconds(1.0);
};

class AdaptiveController final : public FilterDevice {
 public:
  // -- fixed tuning ---------------------------------------------------------
  /// Samples observed (accumulating deltas) before the first retune may
  /// fire — one interval to prime the delta baselines, one to trust it.
  static constexpr std::uint64_t kWarmupSamples = 2;
  /// Samples between consecutive retunes of the *same* knob.
  static constexpr std::uint64_t kCooldownSamples = 2;
  /// Smoothing for the RTT EWMA (weight of the newest interval mean).
  static constexpr double kEwmaAlpha = 0.4;
  /// Relative dead band: a target within this fraction of the current
  /// value is held (counted, not applied).
  static constexpr double kHysteresis = 0.25;
  /// Lower flush-window bound (Scenario::with_coalescing's static clamp).
  static constexpr sim::TimeNs kMinFlushWindow = sim::microseconds(100.0);
  /// Striping-width bounds and the loss band that moves it.
  static constexpr std::size_t kMinRails = 2;
  static constexpr std::size_t kMaxRails = 8;
  static constexpr double kLossHigh = 0.02;  ///< above: narrow the rails
  static constexpr double kLossLow = 0.005;  ///< below: recover toward baseline
  /// Compression stays on only while it saves at least this fraction of
  /// the bytes it touches; while off, re-probe every this-many samples.
  static constexpr double kCompressMinSaving = 0.05;
  static constexpr std::uint64_t kCompressProbeSamples = 16;
  /// Minimum interval wire bytes before the compression ratio is judged
  /// (tiny intervals are noise).
  static constexpr std::uint64_t kCompressMinBytes = 4096;
  /// Coalesce pending-packet gauge past this halves the flush window.
  static constexpr double kQueueReliefPackets = 256.0;

  /// `topo` provides the per-directed-cluster-pair static link table the
  /// per-pair windows scale from; may be null (global window only).
  AdaptiveController(const Topology* topo, AdaptiveConfig config);
  ~AdaptiveController() override;

  const char* name() const override { return "adaptive"; }

  /// Wire the controller to its knobs and observation sources. Reads the
  /// stack's installed devices (all optional — a missing device simply
  /// disables that control loop), captures the knob baselines, registers
  /// the private input sources, and derives the detector clamp from the
  /// heartbeat config. Call once, before traffic flows.
  void attach(const ReliabilityStack& stack, const Fabric& fabric);

  /// Arm (or extend) the sampling ticker for the next `horizon` of
  /// fabric time, after which it quiesces (finite event chain — the DES
  /// engine must drain). Host context; re-armable per phase, exactly
  /// like HeartbeatDevice::watch.
  void start(sim::TimeNs horizon);

  /// One observation+decision step right now (fabric context): snapshot
  /// the private registry and feed it to sample().
  void sample_now();

  /// The deterministic decision step: consume one observation snapshot,
  /// update estimators, and retune knobs through the device hooks.
  /// Public so tests can drive identical synthetic snapshot sequences
  /// through SimMachine- and ThreadMachine-hosted controllers and
  /// require bit-identical decisions.
  void sample(const obs::Snapshot& snap);

  struct Counters {
    std::uint64_t samples = 0;        ///< decision steps taken
    std::uint64_t retunes_total = 0;  ///< knob mutations applied
    std::uint64_t window_widened = 0;
    std::uint64_t window_narrowed = 0;
    std::uint64_t window_clamped_detector = 0;  ///< clamp bound a widening
    std::uint64_t stripe_widened = 0;
    std::uint64_t stripe_narrowed = 0;
    std::uint64_t compress_disabled = 0;
    std::uint64_t compress_enabled = 0;  ///< re-probes included
    std::uint64_t queue_relief = 0;      ///< window halved on queue depth
    std::uint64_t hysteresis_holds = 0;  ///< target inside the dead band
    std::uint64_t cooldown_holds = 0;    ///< target blocked by cooldown
    bool operator==(const Counters&) const = default;
  };
  /// Counters and the knob gauges below are read live by host threads —
  /// tests and the `net.adaptive` metrics source — while ticks mutate
  /// them on the network thread under a SocketFabric, so every reader
  /// snapshots under `state_mutex_` (uncontended, and trivially so under
  /// a SimFabric where everything is one thread).
  Counters counters() const {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return counters_;
  }

  // -- current knob values / estimators (gauges) ---------------------------
  sim::TimeNs flush_window() const {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return window_;
  }
  std::size_t rails() const {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return rails_;
  }
  bool compress_on() const {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return compress_on_;
  }
  double rtt_ewma_ns() const {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return rtt_ewma_ns_;
  }
  /// Observed one-way latency relative to the static worst link (1.0
  /// until the first RTT sample lands).
  double drift() const;

  const AdaptiveConfig& config() const { return config_; }
  /// Hard ceiling on the flush window from the failure detector: half
  /// the heartbeat period, derived by attach(); 0 without a detector.
  sim::TimeNs detector_clamp() const { return detector_clamp_; }

 private:
  void begin(sim::TimeNs horizon);  ///< fabric context
  void tick();                      ///< fabric context
  double drift_locked() const;      ///< drift(), state_mutex_ already held
  /// Window control loop: hysteresis + cooldown + detector clamp, then
  /// the global and per-pair retunes. `relief` marks a queue-relief
  /// narrowing, which bypasses hysteresis (it is an emergency valve).
  void apply_window(sim::TimeNs target, bool relief);
  void decide_window();
  void decide_rails(double loss, bool have_loss);
  void decide_compress(std::uint64_t d_saved, std::uint64_t d_wire);

  const Topology* topo_;
  AdaptiveConfig config_;
  sim::TimeNs detector_clamp_ = 0;

  // Knob targets (null = that control loop is off).
  CoalesceDevice* coalesce_ = nullptr;
  CompressionDevice* compress_ = nullptr;
  StripingDevice* stripe_ = nullptr;
  ReliableDevice* reliable_ = nullptr;

  /// Private observation registry: only fabric-context sources, so
  /// snapshotting from a network-thread tick never races.
  obs::MetricRegistry inputs_;

  // Static baselines captured at attach().
  sim::TimeNs base_max_one_way_ = 0;
  std::map<std::pair<ClusterId, ClusterId>, sim::TimeNs> base_link_latency_;
  std::size_t base_rails_ = 0;

  // Estimator state.
  bool have_prev_ = false;
  std::uint64_t prev_rtt_count_ = 0;
  double prev_rtt_mean_ = 0.0;
  std::uint64_t prev_data_sent_ = 0;
  std::uint64_t prev_retransmits_ = 0;
  std::uint64_t prev_bytes_saved_ = 0;
  std::uint64_t prev_wan_bytes_ = 0;
  double rtt_ewma_ns_ = 0.0;
  double last_loss_ = 0.0;
  bool last_loss_valid_ = false;
  double last_queue_depth_ = 0.0;

  // Current knob values (mirrors of what the devices were last told).
  sim::TimeNs window_ = 0;
  std::size_t rails_ = 0;
  bool compress_on_ = false;

  // Per-knob cooldown bookkeeping (sample index of the last retune).
  std::uint64_t window_changed_at_ = 0;
  std::uint64_t rails_changed_at_ = 0;
  std::uint64_t compress_changed_at_ = 0;

  // Ticker state (start()/tick(), heartbeat-watch pattern).
  sim::TimeNs deadline_ = 0;
  bool ticker_armed_ = false;

  /// Guards the published decision state (counters_, knob mirrors, and
  /// estimators): sample() takes it for the whole decision step, the
  /// accessors above take it to read.
  mutable std::mutex state_mutex_;
  Counters counters_;
};

}  // namespace mdo::net
