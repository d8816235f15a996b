#include "net/coalesce.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace mdo::net {
namespace {

// Every frame leaving the send side is tagged so unbundled passthrough
// packets and bundles can be told apart on receive. No device-injected
// frame (ack, beat, retransmission) ever reaches this device's receive
// transform un-tagged: protocol devices sit below and consume their own
// frames before the receive path climbs this high.
constexpr std::byte kPlain{0};
constexpr std::byte kBundle{1};

struct SubHeader {
  std::uint64_t id;         ///< original fabric id (striping keys on it)
  std::int64_t inject_time;
  std::int32_t priority;
  std::uint32_t bytes;
};

}  // namespace

CoalesceDevice::CoalesceDevice(const Topology* topo, CoalesceConfig config)
    : topo_(topo), config_(config) {
  MDO_CHECK(config_.max_bundle_bytes > 0);
  MDO_CHECK(config_.max_bundle_packets >= 2);
  MDO_CHECK(config_.flush_timeout > 0);
}

std::size_t CoalesceDevice::pending_packets() const {
  std::size_t total = 0;
  for (const auto& [key, buf] : buffers_) total += buf.packets.size();
  return total;
}

bool CoalesceDevice::should_buffer(const Packet& packet) {
  if (packet.priority < 0) {
    ++counters_.bypass_urgent;
    return false;
  }
  if (packet.payload.size() >= config_.max_small_bytes) {
    ++counters_.bypass_large;
    return false;
  }
  if (topo_ != nullptr && topo_->same_cluster(packet.src, packet.dst)) {
    ++counters_.bypass_local;
    return false;
  }
  return true;
}

Packet CoalesceDevice::make_bundle(const PairKey& key, Buffer& buf) {
  MDO_CHECK(!buf.packets.empty());
  Packet bundle;
  bundle.src = key.first;
  bundle.dst = key.second;
  bundle.id = next_bundle_id_++;
  bundle.inject_time = host_ != nullptr ? host_->host_now() : 0;
  // A bundle is as urgent as its most urgent member (all are >= 0 here,
  // so this only matters if bypass rules ever change).
  bundle.priority = buf.packets.front().priority;
  std::size_t wire = 1 + sizeof(std::uint32_t);
  for (const auto& p : buf.packets) {
    bundle.priority = std::min(bundle.priority, p.priority);
    wire += sizeof(SubHeader) + p.payload.size();
  }
  bundle.payload = ScratchArena::local().take();
  bundle.payload.reserve(wire);
  bundle.payload.push_back(kBundle);
  const auto count = static_cast<std::uint32_t>(buf.packets.size());
  const auto* cp = reinterpret_cast<const std::byte*>(&count);
  bundle.payload.insert(bundle.payload.end(), cp, cp + sizeof(count));
  for (auto& p : buf.packets) {
    SubHeader hdr{p.id, p.inject_time, p.priority,
                  static_cast<std::uint32_t>(p.payload.size())};
    const auto* hp = reinterpret_cast<const std::byte*>(&hdr);
    bundle.payload.insert(bundle.payload.end(), hp, hp + sizeof(hdr));
    bundle.payload.insert(bundle.payload.end(), p.payload.begin(),
                          p.payload.end());
    ScratchArena::local().give(std::move(p.payload));
  }
  ++counters_.bundles_sent;
  counters_.packets_bundled += buf.packets.size();
  counters_.bundle_bytes += buf.bytes;
  buf.packets.clear();
  buf.bytes = 0;
  return bundle;
}

void CoalesceDevice::send_transform(std::vector<Packet>& packets,
                                    SendContext&) {
  ScratchArena& arena = ScratchArena::local();
  std::vector<Packet>& out = send_scratch_;
  out.clear();
  out.reserve(packets.size());
  for (auto& p : packets) {
    ++counters_.packets_seen;
    const PairKey key{p.src, p.dst};
    if (!should_buffer(p)) {
      // A bypass frame must not overtake buffered predecessors of its
      // pair: flush them first so per-pair order survives coalescing.
      auto it = buffers_.find(key);
      if (it != buffers_.end() && !it->second.packets.empty()) {
        ++counters_.flush_bypass;
        out.push_back(make_bundle(key, it->second));
      }
      Bytes framed = arena.take();
      framed.reserve(p.payload.size() + 1);
      framed.push_back(kPlain);
      framed.insert(framed.end(), p.payload.begin(), p.payload.end());
      arena.give(std::move(p.payload));
      p.payload = std::move(framed);
      out.push_back(std::move(p));
      continue;
    }
    Buffer& buf = buffers_[key];
    if (config_.eager_first && !buf.timer_armed && buf.packets.empty()) {
      // No window open for this pair: the stream head goes straight
      // through (it is the likely critical-path message) and opens the
      // aggregation window its followers will buffer into.
      ++counters_.eager_sent;
      Bytes framed = arena.take();
      framed.reserve(p.payload.size() + 1);
      framed.push_back(kPlain);
      framed.insert(framed.end(), p.payload.begin(), p.payload.end());
      arena.give(std::move(p.payload));
      p.payload = std::move(framed);
      out.push_back(std::move(p));
      arm_timer(key);
      continue;
    }
    buf.bytes += p.payload.size();
    buf.packets.push_back(std::move(p));
    if (buf.bytes >= config_.max_bundle_bytes ||
        buf.packets.size() >= config_.max_bundle_packets) {
      ++counters_.flush_size;
      out.push_back(make_bundle(key, buf));
    } else {
      arm_timer(key);
    }
  }
  // Swap so both vectors keep their capacity for the next call.
  packets.swap(out);
}

void CoalesceDevice::retune_flush_timeout(sim::TimeNs timeout) {
  MDO_CHECK(timeout > 0);
  config_.flush_timeout = timeout;
}

void CoalesceDevice::retune_pair_flush_timeout(ClusterId src, ClusterId dst,
                                               sim::TimeNs timeout) {
  MDO_CHECK(timeout > 0);
  pair_flush_[{src, dst}] = timeout;
}

sim::TimeNs CoalesceDevice::flush_timeout_for(NodeId src, NodeId dst) const {
  if (topo_ != nullptr && !pair_flush_.empty()) {
    const auto it =
        pair_flush_.find({topo_->cluster_of(src), topo_->cluster_of(dst)});
    if (it != pair_flush_.end()) return it->second;
  }
  return config_.flush_timeout;
}

void CoalesceDevice::arm_timer(const PairKey& key) {
  MDO_CHECK_MSG(host_ != nullptr,
                "CoalesceDevice needs a fabric host (timers, injection)");
  Buffer& buf = buffers_[key];
  if (buf.timer_armed) return;
  buf.timer_armed = true;
  host_->host_schedule(flush_timeout_for(key.first, key.second),
                       [this, key] { on_timer(key); });
}

void CoalesceDevice::on_timer(const PairKey& key) {
  Buffer& buf = buffers_[key];
  buf.timer_armed = false;
  if (buf.packets.empty()) return;  // flushed earlier by threshold/idle
  ++counters_.flush_timer;
  host_->inject_send(this, make_bundle(key, buf));
}

void CoalesceDevice::flush_source(NodeId src) {
  if (host_ == nullptr) return;
  // Hop into fabric context: under a SocketFabric the buffers are only
  // ever touched on the network thread; under a SimFabric this just
  // defers the flush into an engine event at the current time.
  host_->host_schedule(0, [this, src] { on_idle_flush(src); });
}

void CoalesceDevice::on_idle_flush(NodeId src) {
  for (auto& [key, buf] : buffers_) {
    if (key.first != src || buf.packets.empty()) continue;
    ++counters_.flush_idle;
    host_->inject_send(this, make_bundle(key, buf));
  }
}

std::optional<Packet> CoalesceDevice::receive_transform(Packet packet) {
  if (packet.payload.empty()) {
    ++counters_.malformed_dropped;
    return std::nullopt;
  }
  const std::byte tag = packet.payload.front();
  if (tag == kPlain) {
    packet.payload.erase(packet.payload.begin());
    return packet;
  }
  if (tag != kBundle) {
    ++counters_.malformed_dropped;
    return std::nullopt;
  }
  // Parse defensively: on a stack without a checksum device below, a
  // corrupted bundle must degrade to a drop, not an abort.
  const std::size_t total = packet.payload.size();
  std::size_t off = 1;
  std::uint32_t count = 0;
  if (total < off + sizeof(count)) {
    ++counters_.malformed_dropped;
    return std::nullopt;
  }
  std::memcpy(&count, packet.payload.data() + off, sizeof(count));
  off += sizeof(count);

  std::vector<Packet> subs;
  subs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SubHeader hdr;
    if (total < off + sizeof(hdr)) {
      ++counters_.malformed_dropped;
      return std::nullopt;
    }
    std::memcpy(&hdr, packet.payload.data() + off, sizeof(hdr));
    off += sizeof(hdr);
    if (total < off + hdr.bytes) {
      ++counters_.malformed_dropped;
      return std::nullopt;
    }
    Packet sub;
    sub.src = packet.src;
    sub.dst = packet.dst;
    sub.id = hdr.id;
    sub.priority = hdr.priority;
    sub.inject_time = hdr.inject_time;
    sub.payload = ScratchArena::local().take();
    sub.payload.assign(
        packet.payload.begin() + static_cast<std::ptrdiff_t>(off),
        packet.payload.begin() + static_cast<std::ptrdiff_t>(off + hdr.bytes));
    off += hdr.bytes;
    subs.push_back(std::move(sub));
  }
  if (off != total) {
    ++counters_.malformed_dropped;
    return std::nullopt;
  }
  // The whole bundle proves its source was alive when it was sent; let
  // the failure detector (below us on the receive path, so it already
  // saw only one frame) credit the full batch.
  if (on_unbundle_) on_unbundle_(packet.src);
  counters_.packets_unbundled += subs.size();
  // Deliver each packet up through the devices above us, in bundle
  // order; one uniform path whether the stack continues or ends here.
  MDO_CHECK_MSG(host_ != nullptr,
                "CoalesceDevice needs a fabric host (timers, injection)");
  ScratchArena::local().give(std::move(packet.payload));
  for (auto& sub : subs) host_->inject_receive(this, std::move(sub));
  return std::nullopt;
}

}  // namespace mdo::net
