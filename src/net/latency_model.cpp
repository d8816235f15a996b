#include "net/latency_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mdo::net {
namespace {

/// Seed of the WAN jitter stream; reset() rewinds it.
constexpr std::uint64_t kJitterSeed = 0x5eedULL;

}  // namespace

GridLatencyModel::GridLatencyModel(const Topology* topo, Config config)
    : topo_(topo), config_(config), jitter_rng_(kJitterSeed) {
  MDO_CHECK(topo_ != nullptr);
  std::size_t c = topo_->num_clusters();
  link_free_.assign(c * c, 0);
}

void GridLatencyModel::reset() {
  std::fill(link_free_.begin(), link_free_.end(), 0);
  jitter_rng_ = SplitMix64(kJitterSeed);
}

sim::TimeNs GridLatencyModel::delivery_delay(NodeId src, NodeId dst,
                                             std::size_t bytes,
                                             sim::TimeNs now) {
  if (src == dst) {
    return config_.local.latency + config_.local.serialization(bytes);
  }
  ClusterId sc = topo_->cluster_of(src);
  ClusterId dc = topo_->cluster_of(dst);
  if (sc == dc) {
    return config_.intra.latency + config_.intra.serialization(bytes);
  }

  const LinkParams wan = config_.use_topology_links
                             ? topo_->wan_link_or(sc, dc, config_.inter)
                             : config_.inter;
  sim::TimeNs serialize = wan.serialization(bytes);
  sim::TimeNs depart = now;
  if (config_.wan_contention) {
    auto idx = static_cast<std::size_t>(sc) * topo_->num_clusters() +
               static_cast<std::size_t>(dc);
    depart = std::max(now, link_free_[idx]);
    link_free_[idx] = depart + serialize;
  }
  sim::TimeNs jitter = 0;
  if (config_.wan_jitter_fraction > 0.0) {
    jitter = static_cast<sim::TimeNs>(
        jitter_rng_.next_double() * config_.wan_jitter_fraction *
        static_cast<double>(wan.latency));
  }
  return (depart - now) + serialize + wan.latency + jitter;
}

}  // namespace mdo::net
