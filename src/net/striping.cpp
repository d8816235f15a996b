#include "net/striping.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace mdo::net {
namespace {

// Fragment frames are tagged so unstriped packets pass through unchanged.
constexpr std::byte kPlain{0};
constexpr std::byte kFragment{1};

}  // namespace

StripingDevice::StripingDevice(std::size_t rails, std::size_t min_bytes)
    : rails_(rails), min_bytes_(min_bytes) {
  MDO_CHECK(rails_ >= 2);
}

void StripingDevice::retune_rails(std::size_t rails) {
  MDO_CHECK(rails >= 2);
  rails_ = rails;
}

void StripingDevice::send_transform(std::vector<Packet>& packets,
                                    SendContext&) {
  ScratchArena& arena = ScratchArena::local();
  std::vector<Packet>& out = send_scratch_;
  out.clear();
  out.reserve(packets.size());
  for (auto& p : packets) {
    if (p.payload.size() < min_bytes_) {
      Bytes framed = arena.take();
      framed.reserve(p.payload.size() + 1);
      framed.push_back(kPlain);
      framed.insert(framed.end(), p.payload.begin(), p.payload.end());
      arena.give(std::move(p.payload));
      p.payload = std::move(framed);
      out.push_back(std::move(p));
      continue;
    }
    ++striped_;
    const std::size_t total = p.payload.size();
    const std::size_t chunk = (total + rails_ - 1) / rails_;
    std::uint32_t count = 0;
    for (std::size_t off = 0; off < total; off += chunk) ++count;
    std::uint32_t index = 0;
    for (std::size_t off = 0; off < total; off += chunk, ++index) {
      std::size_t n = std::min(chunk, total - off);
      FragmentHeader hdr{p.id, index, count, total};
      Packet frag;
      frag.src = p.src;
      frag.dst = p.dst;
      frag.id = p.id;  // fabric ids are per original send; fragments share it
      frag.priority = p.priority;
      frag.inject_time = p.inject_time;
      frag.hold_ns = p.hold_ns;  // a hold set above applies to every rail
      frag.payload = arena.take();
      frag.payload.reserve(1 + sizeof(hdr) + n);
      frag.payload.push_back(kFragment);
      const auto* hp = reinterpret_cast<const std::byte*>(&hdr);
      frag.payload.insert(frag.payload.end(), hp, hp + sizeof(hdr));
      frag.payload.insert(frag.payload.end(), p.payload.begin() + off,
                          p.payload.begin() + off + n);
      out.push_back(std::move(frag));
    }
    arena.give(std::move(p.payload));
  }
  // Swap so both vectors keep their capacity for the next call (the
  // chain's list becomes next call's scratch).
  packets.swap(out);
}

void StripingDevice::drop_source(NodeId src) {
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (it->first.first == src) {
      squashed_fragments_ += it->second.received;
      it = partial_.erase(it);
    } else {
      ++it;
    }
  }
  squashed_sources_.insert(src);
}

std::optional<Packet> StripingDevice::receive_transform(Packet packet) {
  MDO_CHECK_MSG(!packet.payload.empty(), "empty striped frame");
  std::byte tag = packet.payload.front();
  if (tag == kPlain) {
    packet.payload.erase(packet.payload.begin());
    return packet;
  }
  MDO_CHECK_MSG(tag == kFragment, "unknown stripe tag");
  MDO_CHECK(packet.payload.size() >= 1 + sizeof(FragmentHeader));
  FragmentHeader hdr;
  std::memcpy(&hdr, packet.payload.data() + 1, sizeof(hdr));
  MDO_CHECK(hdr.index < hdr.count);

  if (squashed_sources_.count(packet.src) != 0) {
    // A fragment that outlived its sender's squash (e.g. it was already
    // on the wire): dropping it is the only move that cannot resurrect a
    // half-dead reassembly.
    ++squashed_fragments_;
    return std::nullopt;
  }

  auto key = std::make_pair(packet.src, hdr.original_id);
  Partial& part = partial_[key];
  if (part.pieces.empty()) {
    part.pieces.resize(hdr.count);
    part.original_bytes = hdr.original_bytes;
  }
  MDO_CHECK_MSG(part.pieces.size() == hdr.count, "fragment count mismatch");
  MDO_CHECK_MSG(part.pieces[hdr.index].empty(), "duplicate fragment");
  part.pieces[hdr.index].assign(
      packet.payload.begin() + 1 + static_cast<std::ptrdiff_t>(sizeof(hdr)),
      packet.payload.end());
  ++part.received;
  if (part.received < hdr.count) {
    ScratchArena::local().give(std::move(packet.payload));
    return std::nullopt;
  }

  Packet whole;
  whole.src = packet.src;
  whole.dst = packet.dst;
  whole.id = hdr.original_id;
  whole.priority = packet.priority;
  whole.inject_time = packet.inject_time;
  whole.payload = ScratchArena::local().take();
  whole.payload.reserve(part.original_bytes);
  for (auto& piece : part.pieces)
    whole.payload.insert(whole.payload.end(), piece.begin(), piece.end());
  MDO_CHECK_MSG(whole.payload.size() == part.original_bytes,
                "reassembled size mismatch");
  partial_.erase(key);
  return whole;
}

}  // namespace mdo::net
