#include "net/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "net/coalesce.hpp"
#include "net/devices.hpp"
#include "net/metrics.hpp"
#include "net/reliable.hpp"
#include "net/striping.hpp"
#include "util/assert.hpp"

namespace mdo::net {

AdaptiveController::AdaptiveController(const Topology* topo,
                                       AdaptiveConfig config)
    : topo_(topo), config_(config) {
  MDO_CHECK(config_.sample_period > 0);
  MDO_CHECK(config_.max_flush_window >= kMinFlushWindow);
}

AdaptiveController::~AdaptiveController() = default;

void AdaptiveController::attach(const ReliabilityStack& stack,
                                const Fabric& fabric) {
  MDO_CHECK_MSG(coalesce_ == nullptr && reliable_ == nullptr,
                "adaptive controller already attached");
  coalesce_ = stack.coalesce;
  compress_ = stack.compress;
  stripe_ = stack.stripe;
  reliable_ = stack.reliable;

  // The failure detector owns the upper bound of the flush window: a
  // bundle may never sit longer than half a beat period, or coalescing
  // widens the detection window. Captured here (not just at Scenario
  // construction) so *retunes* re-check it too.
  if (stack.heartbeat != nullptr) {
    detector_clamp_ = stack.heartbeat->config().period / 2;
  }

  // Observation sources — all fabric-context producers, so a network
  // thread tick can snapshot them without racing worker threads.
  if (reliable_ != nullptr) register_metrics(inputs_, *reliable_);
  if (coalesce_ != nullptr) register_metrics(inputs_, *coalesce_);
  if (compress_ != nullptr) register_metrics(inputs_, *compress_);
  if (stripe_ != nullptr) register_metrics(inputs_, *stripe_);
  register_fabric_metrics(inputs_, fabric);

  // Knob baselines: the statically-derived settings are the controller's
  // starting point, so with nothing to observe it changes nothing.
  if (coalesce_ != nullptr) window_ = coalesce_->config().flush_timeout;
  if (stripe_ != nullptr) {
    base_rails_ = stripe_->rails();
    rails_ = base_rails_;
  }
  if (compress_ != nullptr) compress_on_ = compress_->encode_enabled();

  if (topo_ != nullptr) {
    base_max_one_way_ = topo_->max_wan_latency();
    const auto c = static_cast<ClusterId>(topo_->num_clusters());
    for (ClusterId i = 0; i < c; ++i) {
      for (ClusterId j = 0; j < c; ++j) {
        if (i == j) continue;
        if (const LinkParams* link = topo_->wan_link(i, j)) {
          base_link_latency_[{i, j}] = link->latency;
        }
      }
    }
  }
}

double AdaptiveController::drift() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return drift_locked();
}

double AdaptiveController::drift_locked() const {
  if (rtt_ewma_ns_ <= 0.0 || base_max_one_way_ <= 0) return 1.0;
  return (rtt_ewma_ns_ / 2.0) / static_cast<double>(base_max_one_way_);
}

void AdaptiveController::start(sim::TimeNs horizon) {
  MDO_CHECK_MSG(host_ != nullptr,
                "AdaptiveController needs a fabric host (timers)");
  MDO_CHECK(horizon > 0);
  host_->host_schedule(0, [this, horizon] { begin(horizon); });
}

void AdaptiveController::begin(sim::TimeNs horizon) {
  deadline_ = std::max(deadline_, host_->host_now() + horizon);
  if (ticker_armed_) return;
  ticker_armed_ = true;
  host_->host_schedule(config_.sample_period, [this] { tick(); });
}

void AdaptiveController::tick() {
  ticker_armed_ = false;
  if (host_->host_now() > deadline_) return;  // horizon passed: quiesce
  sample_now();
  ticker_armed_ = true;
  host_->host_schedule(config_.sample_period, [this] { tick(); });
}

void AdaptiveController::sample_now() { sample(inputs_.snapshot()); }

void AdaptiveController::sample(const obs::Snapshot& snap) {
  // One lock for the whole decision step: host-thread readers (the
  // accessors and the net.adaptive metrics source) see either the state
  // before this sample or after it, never a half-applied retune.
  const std::lock_guard<std::mutex> lock(state_mutex_);
  ++counters_.samples;

  // WAN-only RTT: the mixed histogram would let microsecond SAN acks
  // drag the one-way estimate toward zero on a hybrid topology.
  const obs::MetricValue* rtt = snap.find("net.reliable.wan_ack_rtt_ns");
  const std::uint64_t data_sent = snap.counter("net.reliable.data_sent");
  const std::uint64_t retransmits = snap.counter("net.reliable.retransmits");
  const std::uint64_t bytes_saved = snap.counter("net.compress.bytes_saved");
  const std::uint64_t wan_bytes = snap.counter("fabric.wan_bytes");
  last_queue_depth_ = snap.gauge("net.coalesce.pending_packets");

  std::uint64_t d_saved = 0;
  std::uint64_t d_wire = 0;
  last_loss_valid_ = false;
  if (have_prev_) {
    // Interval mean of the ack RTT histogram: the registry publishes
    // cumulative (count, mean), so the interval's own mean falls out of
    // the difference of the two running sums.
    if (rtt != nullptr && rtt->kind == obs::MetricValue::Kind::kHistogram &&
        rtt->count > prev_rtt_count_) {
      const double d = static_cast<double>(rtt->count - prev_rtt_count_);
      const double interval_mean =
          (static_cast<double>(rtt->count) * rtt->value -
           static_cast<double>(prev_rtt_count_) * prev_rtt_mean_) /
          d;
      if (interval_mean > 0.0) {
        rtt_ewma_ns_ = rtt_ewma_ns_ <= 0.0
                           ? interval_mean
                           : (1.0 - kEwmaAlpha) * rtt_ewma_ns_ +
                                 kEwmaAlpha * interval_mean;
      }
    }
    const std::uint64_t d_data =
        data_sent >= prev_data_sent_ ? data_sent - prev_data_sent_ : 0;
    const std::uint64_t d_retx = retransmits >= prev_retransmits_
                                     ? retransmits - prev_retransmits_
                                     : 0;
    if (d_data > 0) {
      last_loss_ = static_cast<double>(d_retx) / static_cast<double>(d_data);
      last_loss_valid_ = true;
    }
    d_saved = bytes_saved >= prev_bytes_saved_ ? bytes_saved - prev_bytes_saved_
                                               : 0;
    d_wire = wan_bytes >= prev_wan_bytes_ ? wan_bytes - prev_wan_bytes_ : 0;
  }
  if (rtt != nullptr && rtt->kind == obs::MetricValue::Kind::kHistogram) {
    prev_rtt_count_ = rtt->count;
    prev_rtt_mean_ = rtt->value;
  }
  prev_data_sent_ = data_sent;
  prev_retransmits_ = retransmits;
  prev_bytes_saved_ = bytes_saved;
  prev_wan_bytes_ = wan_bytes;
  have_prev_ = true;

  if (counters_.samples <= kWarmupSamples) return;

  decide_window();
  decide_rails(last_loss_, last_loss_valid_);
  decide_compress(d_saved, d_wire);
}

void AdaptiveController::decide_window() {
  if (coalesce_ == nullptr) return;
  if (last_queue_depth_ > kQueueReliefPackets && window_ > kMinFlushWindow) {
    // Relief valve: buffers deep enough to matter mean the window is
    // hurting regardless of what the RTT estimator thinks.
    apply_window(std::max(kMinFlushWindow, window_ / 2), /*relief=*/true);
    return;
  }
  if (rtt_ewma_ns_ <= 0.0) return;  // no RTT evidence yet
  const double one_way = rtt_ewma_ns_ / 2.0;
  const auto target = static_cast<sim::TimeNs>(one_way / 8.0);
  apply_window(std::clamp(target, kMinFlushWindow, config_.max_flush_window),
               /*relief=*/false);
}

void AdaptiveController::apply_window(sim::TimeNs target, bool relief) {
  bool clamped = false;
  if (detector_clamp_ > 0 && target > detector_clamp_) {
    target = detector_clamp_;
    clamped = true;
  }
  if (target == window_) return;
  if (!relief) {
    if (counters_.samples - window_changed_at_ < kCooldownSamples) {
      ++counters_.cooldown_holds;
      return;
    }
    const double rel =
        std::abs(static_cast<double>(target) - static_cast<double>(window_)) /
        static_cast<double>(window_);
    if (rel <= kHysteresis) {
      ++counters_.hysteresis_holds;
      return;
    }
  }
  const bool widen = target > window_;
  coalesce_->retune_flush_timeout(target);
  // Per-directed-pair windows: each link's static latency scaled by the
  // observed drift, under the same bounds — a heterogeneous grid keeps
  // per-link windows proportional instead of sized to the worst link.
  // A relief halving applies uniformly (emergencies are not per-pair).
  const double scale = drift_locked();
  for (const auto& [pair, base_latency] : base_link_latency_) {
    sim::TimeNs t = target;
    if (!relief && base_max_one_way_ > 0) {
      t = std::clamp(
          static_cast<sim::TimeNs>(static_cast<double>(base_latency) * scale /
                                   8.0),
          kMinFlushWindow, config_.max_flush_window);
      if (detector_clamp_ > 0) t = std::min(t, detector_clamp_);
    }
    coalesce_->retune_pair_flush_timeout(pair.first, pair.second, t);
  }
  window_ = target;
  window_changed_at_ = counters_.samples;
  ++counters_.retunes_total;
  if (relief) ++counters_.queue_relief;
  if (widen) {
    ++counters_.window_widened;
    if (clamped) ++counters_.window_clamped_detector;
  } else {
    ++counters_.window_narrowed;
  }
}

void AdaptiveController::decide_rails(double loss, bool have_loss) {
  if (stripe_ == nullptr || !have_loss) return;
  std::size_t target = rails_;
  if (loss >= kLossHigh && rails_ > kMinRails) {
    // Every striped payload is `rails` reliable frames that must all
    // survive; under loss, fewer rails mean fewer chances to stall a
    // whole message behind one retransmission.
    target = rails_ - 1;
  } else if (loss <= kLossLow && rails_ < base_rails_ && rails_ < kMaxRails) {
    // Recover toward the configured baseline (not kMaxRails: on a clean
    // link the static width is the optimum, and growing past it would
    // retune forever).
    target = rails_ + 1;
  }
  if (target == rails_) return;
  if (counters_.samples - rails_changed_at_ < kCooldownSamples) {
    ++counters_.cooldown_holds;
    return;
  }
  const bool widen = target > rails_;
  stripe_->retune_rails(target);
  rails_ = target;
  rails_changed_at_ = counters_.samples;
  ++counters_.retunes_total;
  if (widen) {
    ++counters_.stripe_widened;
  } else {
    ++counters_.stripe_narrowed;
  }
}

void AdaptiveController::decide_compress(std::uint64_t d_saved,
                                         std::uint64_t d_wire) {
  if (compress_ == nullptr) return;
  if (compress_on_) {
    const std::uint64_t touched = d_saved + d_wire;
    if (touched < kCompressMinBytes) return;  // interval too small
    const double ratio =
        static_cast<double>(d_saved) / static_cast<double>(touched);
    if (ratio >= kCompressMinSaving) return;
    if (counters_.samples - compress_changed_at_ < kCooldownSamples) {
      ++counters_.cooldown_holds;
      return;
    }
    compress_->retune_enabled(false);
    compress_on_ = false;
    compress_changed_at_ = counters_.samples;
    ++counters_.retunes_total;
    ++counters_.compress_disabled;
  } else {
    // Periodic re-probe: payload mixes change, and a disabled encoder
    // observes zero savings forever without one.
    if (counters_.samples - compress_changed_at_ < kCompressProbeSamples) {
      return;
    }
    compress_->retune_enabled(true);
    compress_on_ = true;
    compress_changed_at_ = counters_.samples;
    ++counters_.retunes_total;
    ++counters_.compress_enabled;
  }
}

}  // namespace mdo::net
