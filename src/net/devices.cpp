#include "net/devices.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mdo::net {

// -- FilterDevice defaults -------------------------------------------

void FilterDevice::send_transform(std::vector<Packet>& packets,
                                  SendContext& ctx) {
  for (auto& p : packets) on_send(p, ctx);
}

std::optional<Packet> FilterDevice::receive_transform(Packet packet) {
  on_receive(packet);
  return packet;
}

void FilterDevice::on_send(Packet&, SendContext&) {}
void FilterDevice::on_receive(Packet&) {}

// -- DelayDevice ------------------------------------------------------

DelayDevice::DelayDevice(const Topology* topo, sim::TimeNs cross_cluster_delay)
    : topo_(topo), default_delay_(cross_cluster_delay) {
  MDO_CHECK(topo_ != nullptr);
  MDO_CHECK(cross_cluster_delay >= 0);
}

void DelayDevice::set_pair_delay(NodeId src, NodeId dst, sim::TimeNs delay) {
  MDO_CHECK(delay >= 0);
  pair_delay_[{src, dst}] = delay;
}

void DelayDevice::set_cluster_delay(ClusterId src, ClusterId dst,
                                    sim::TimeNs delay) {
  MDO_CHECK(delay >= 0);
  MDO_CHECK(src != dst);
  cluster_delay_[{src, dst}] = delay;
}

void DelayDevice::on_send(Packet& packet, SendContext& ctx) {
  if (auto it = pair_delay_.find({packet.src, packet.dst});
      it != pair_delay_.end()) {
    ctx.extra_delay += it->second;
    return;
  }
  ClusterId sc = topo_->cluster_of(packet.src);
  ClusterId dc = topo_->cluster_of(packet.dst);
  if (sc == dc) return;
  if (auto it = cluster_delay_.find({sc, dc}); it != cluster_delay_.end()) {
    ctx.extra_delay += it->second;
    return;
  }
  ctx.extra_delay += default_delay_;
}

// -- CompressionDevice --------------------------------------------------

namespace {
constexpr std::byte kStored{0};
constexpr std::byte kRle{1};

/// Number of leading bytes of `bytes` equal to `value`, compared eight at
/// a time: the first differing byte is the lowest set byte of the XOR
/// against `value` broadcast, in memory order.
std::size_t same_prefix(std::span<const std::byte> bytes, std::byte value) {
  const std::uint64_t pattern =
      0x0101010101010101ULL * static_cast<std::uint8_t>(value);
  std::size_t k = 0;
  for (; k + sizeof(pattern) <= bytes.size(); k += sizeof(pattern)) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + k, sizeof(word));
    if (const std::uint64_t diff = word ^ pattern; diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return k + static_cast<std::size_t>(bit) / 8;
    }
  }
  while (k < bytes.size() && bytes[k] == value) ++k;
  return k;
}
}  // namespace

CompressionDevice::CompressionDevice(double cpu_ns_per_byte)
    : cpu_ns_per_byte_(cpu_ns_per_byte) {}

void CompressionDevice::rle_encode_into(std::span<const std::byte> in,
                                        Bytes& out) {
  out.clear();
  out.reserve(in.size() / 2 + 16);
  std::size_t i = 0;
  while (i < in.size()) {
    const std::byte value = in[i];
    const std::size_t limit = std::min<std::size_t>(in.size() - i, 255);
    const std::size_t run = 1 + same_prefix(in.subspan(i + 1, limit - 1), value);
    out.push_back(static_cast<std::byte>(run));
    out.push_back(value);
    i += run;
  }
}

bool CompressionDevice::rle_decode_into(std::span<const std::byte> in,
                                        Bytes& out) {
  out.clear();
  if (in.size() % 2 != 0) return false;  // truncated (run, value) pair
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); i += 2) {
    auto run = static_cast<std::size_t>(in[i]);
    if (run == 0) return false;  // the encoder never emits empty runs
    out.insert(out.end(), run, in[i + 1]);
  }
  return true;
}

Bytes CompressionDevice::rle_encode(const Bytes& in) {
  Bytes out;
  rle_encode_into(in, out);
  return out;
}

std::optional<Bytes> CompressionDevice::rle_decode(
    std::span<const std::byte> in) {
  Bytes out;
  if (!rle_decode_into(in, out)) return std::nullopt;
  return out;
}

void CompressionDevice::on_send(Packet& packet, SendContext& ctx) {
  ScratchArena& arena = ScratchArena::local();
  if (!encode_enabled_) {
    // Pass-through framing: stored block, no encode attempt, no CPU
    // charge — the adaptive controller's "compression off" state.
    Bytes framed = arena.take();
    framed.reserve(packet.payload.size() + 1);
    framed.push_back(kStored);
    framed.insert(framed.end(), packet.payload.begin(), packet.payload.end());
    arena.give(std::move(packet.payload));
    packet.payload = std::move(framed);
    return;
  }
  ctx.cpu_cost += static_cast<sim::TimeNs>(
      cpu_ns_per_byte_ * static_cast<double>(packet.payload.size()));
  Bytes encoded = arena.take();
  rle_encode_into(packet.payload, encoded);
  Bytes framed = arena.take();
  if (encoded.size() < packet.payload.size()) {
    bytes_saved_ += packet.payload.size() - encoded.size();
    framed.reserve(encoded.size() + 1);
    framed.push_back(kRle);
    framed.insert(framed.end(), encoded.begin(), encoded.end());
  } else {
    framed.reserve(packet.payload.size() + 1);
    framed.push_back(kStored);
    framed.insert(framed.end(), packet.payload.begin(), packet.payload.end());
  }
  arena.give(std::move(encoded));
  arena.give(std::move(packet.payload));
  packet.payload = std::move(framed);
}

std::optional<Packet> CompressionDevice::receive_transform(Packet packet) {
  if (packet.payload.empty()) {
    ++decode_failures_;
    return std::nullopt;
  }
  std::byte tag = packet.payload.front();
  std::span<const std::byte> body{packet.payload.data() + 1,
                                  packet.payload.size() - 1};
  if (tag == kRle) {
    ScratchArena& arena = ScratchArena::local();
    Bytes decoded = arena.take();
    if (!rle_decode_into(body, decoded)) {
      arena.give(std::move(decoded));
      ++decode_failures_;
      return std::nullopt;
    }
    arena.give(std::move(packet.payload));
    packet.payload = std::move(decoded);
  } else if (tag == kStored) {
    // In-place strip of the tag byte; assigning from the vector's own
    // iterators after clear() would read invalidated elements.
    packet.payload.erase(packet.payload.begin());
  } else {
    ++decode_failures_;
    return std::nullopt;
  }
  return packet;
}

// -- ChecksumDevice -----------------------------------------------------

std::uint64_t ChecksumDevice::fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void ChecksumDevice::on_send(Packet& packet, SendContext&) {
  std::uint64_t digest = fnv1a(packet.payload);
  const auto* p = reinterpret_cast<const std::byte*>(&digest);
  packet.payload.insert(packet.payload.end(), p, p + sizeof(digest));
}

std::optional<Packet> ChecksumDevice::receive_transform(Packet packet) {
  if (packet.payload.size() < sizeof(std::uint64_t)) {
    if (drop_on_mismatch_) {
      ++corrupt_dropped_;
      return std::nullopt;
    }
    MDO_CHECK_MSG(false, "frame shorter than its checksum");
  }
  std::uint64_t stored;
  std::memcpy(&stored,
              packet.payload.data() + packet.payload.size() - sizeof(stored),
              sizeof(stored));
  std::uint64_t computed =
      fnv1a({packet.payload.data(), packet.payload.size() - sizeof(stored)});
  if (stored != computed) {
    if (drop_on_mismatch_) {
      ++corrupt_dropped_;
      return std::nullopt;
    }
    MDO_CHECK_MSG(false, "checksum mismatch: corrupted frame");
  }
  packet.payload.resize(packet.payload.size() - sizeof(stored));
  ++verified_;
  return packet;
}

// -- CryptoDevice -------------------------------------------------------

void CryptoDevice::apply_keystream(Packet& packet) const {
  SplitMix64 stream(key_ ^ (packet.id * 0x9e3779b97f4a7c15ULL + 1));
  std::byte* data = packet.payload.data();
  const std::size_t size = packet.payload.size();
  std::size_t i = 0;
  // Byte b of each eight-byte block takes bits 8b..8b+7 of the next
  // keystream word, which on a little-endian host is one 64-bit XOR.
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + sizeof(std::uint64_t) <= size; i += sizeof(std::uint64_t)) {
      std::uint64_t block;
      std::memcpy(&block, data + i, sizeof(block));
      block ^= stream.next_u64();
      std::memcpy(data + i, &block, sizeof(block));
    }
  }
  while (i < size) {
    std::uint64_t word = stream.next_u64();
    for (std::size_t b = 0; b < sizeof(word) && i < size; ++b, ++i) {
      data[i] ^= static_cast<std::byte>((word >> (8 * b)) & 0xff);
    }
  }
}

void CryptoDevice::on_send(Packet& packet, SendContext& ctx) {
  ctx.cpu_cost += static_cast<sim::TimeNs>(packet.payload.size() / 8);
  apply_keystream(packet);
}

void CryptoDevice::on_receive(Packet& packet) { apply_keystream(packet); }

}  // namespace mdo::net
