// Device chain: delay, compression, checksum, crypto, striping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "net/chain.hpp"
#include "net/devices.hpp"
#include "net/striping.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace {

using namespace mdo;
using net::Chain;
using net::ChecksumDevice;
using net::CompressionDevice;
using net::CryptoDevice;
using net::DelayDevice;
using net::Packet;
using net::SendContext;
using net::StripingDevice;
using net::Topology;

Packet make_packet(net::NodeId src, net::NodeId dst, const std::string& body,
                   std::uint64_t id = 1) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.id = id;
  p.payload.resize(body.size());
  if (!body.empty()) std::memcpy(p.payload.data(), body.data(), body.size());
  return p;
}

std::string body_of(const Packet& p) {
  return std::string(reinterpret_cast<const char*>(p.payload.data()),
                     p.payload.size());
}

/// Push a packet through the full send+receive paths of a chain.
std::vector<Packet> wire_frames(Chain& chain, Packet p, SendContext& ctx) {
  return chain.apply_send(std::move(p), ctx);
}

/// The hold the chain puts on a send that leaves it as one frame.
sim::TimeNs hold_of(Chain& chain, Packet p) {
  SendContext ctx;
  std::vector<Packet> frames = wire_frames(chain, std::move(p), ctx);
  EXPECT_EQ(frames.size(), 1u);
  return frames.empty() ? -1 : frames.front().hold_ns;
}

TEST(DelayDeviceTest, DelaysOnlyCrossCluster) {
  Topology topo = Topology::two_cluster(4);
  Chain chain;
  chain.add(std::make_unique<DelayDevice>(&topo, sim::milliseconds(8)));

  EXPECT_EQ(hold_of(chain, make_packet(0, 1, "x")), 0);
  EXPECT_EQ(hold_of(chain, make_packet(0, 2, "x")), sim::milliseconds(8));
}

TEST(DelayDeviceTest, PairOverrideWins) {
  Topology topo = Topology::two_cluster(4);
  auto delay = std::make_unique<DelayDevice>(&topo, sim::milliseconds(8));
  delay->set_pair_delay(0, 2, sim::milliseconds(32));
  delay->set_pair_delay(1, 0, sim::milliseconds(2));  // even intra-cluster
  Chain chain;
  chain.add(std::move(delay));

  EXPECT_EQ(hold_of(chain, make_packet(0, 2, "x")), sim::milliseconds(32));
  EXPECT_EQ(hold_of(chain, make_packet(1, 0, "x")), sim::milliseconds(2));
  // Other cross-cluster pairs keep the default.
  EXPECT_EQ(hold_of(chain, make_packet(1, 3, "x")), sim::milliseconds(8));
}

TEST(DelayDeviceTest, PairOverrideIsDirectional) {
  // set_pair_delay keys on the ordered (src, dst) pair: overriding A->B
  // must leave B->A on the default rule for its cluster relation.
  Topology topo = Topology::two_cluster(4);
  auto delay = std::make_unique<DelayDevice>(&topo, sim::milliseconds(8));
  delay->set_pair_delay(0, 2, sim::milliseconds(32));
  Chain chain;
  chain.add(std::move(delay));

  EXPECT_EQ(hold_of(chain, make_packet(0, 2, "x")), sim::milliseconds(32));
  // Reverse direction: still the cross-cluster default.
  EXPECT_EQ(hold_of(chain, make_packet(2, 0, "x")), sim::milliseconds(8));
}

TEST(DelayDeviceTest, ZeroPairOverrideBeatsCrossClusterDefault) {
  // An explicit 0 override must win over the nonzero cross-cluster
  // default, not fall through to it.
  Topology topo = Topology::two_cluster(4);
  auto delay = std::make_unique<DelayDevice>(&topo, sim::milliseconds(8));
  delay->set_pair_delay(1, 3, 0);
  Chain chain;
  chain.add(std::move(delay));

  EXPECT_EQ(hold_of(chain, make_packet(1, 3, "x")), 0);
  // A different cross-cluster pair keeps the default.
  EXPECT_EQ(hold_of(chain, make_packet(0, 3, "x")), sim::milliseconds(8));
}

TEST(CompressionTest, RleRoundtrip) {
  Bytes in;
  for (int i = 0; i < 100; ++i) in.push_back(std::byte{7});
  for (int i = 0; i < 5; ++i) in.push_back(static_cast<std::byte>(i));
  Bytes enc = CompressionDevice::rle_encode(in);
  EXPECT_LT(enc.size(), in.size());
  EXPECT_EQ(CompressionDevice::rle_decode(enc), in);
}

TEST(CompressionTest, RleHandlesLongRuns) {
  Bytes in(1000, std::byte{0});
  Bytes enc = CompressionDevice::rle_encode(in);
  EXPECT_EQ(enc.size(), 8u);  // ceil(1000/255)=4 runs, 2 bytes each
  EXPECT_EQ(CompressionDevice::rle_decode(enc), in);
}

TEST(CompressionTest, DecodeRejectsTruncatedInput) {
  Bytes in(300, std::byte{9});
  Bytes enc = CompressionDevice::rle_encode(in);
  enc.pop_back();  // odd length: a (run, value) pair lost its value byte
  EXPECT_FALSE(CompressionDevice::rle_decode(enc).has_value());
}

TEST(CompressionTest, RleEncodeMatchesBytewiseReference) {
  // The encoder scans runs a word at a time; its output must equal the
  // plain one-byte-at-a-time encoding for runs of every length, across
  // the 255 cap, and for inputs whose length is not a multiple of 8.
  auto reference = [](const Bytes& in) {
    Bytes out;
    for (std::size_t i = 0; i < in.size();) {
      std::size_t run = 1;
      while (i + run < in.size() && in[i + run] == in[i] && run < 255) ++run;
      out.push_back(static_cast<std::byte>(run));
      out.push_back(in[i]);
      i += run;
    }
    return out;
  };
  SplitMix64 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes in;
    const std::size_t target = rng.next_u64() % 2000;
    while (in.size() < target) {
      const std::size_t run = rng.next_u64() % 600;
      const auto value = static_cast<std::byte>(rng.next_u64() % 3);
      in.insert(in.end(), std::min(run, target - in.size()), value);
    }
    Bytes enc = CompressionDevice::rle_encode(in);
    ASSERT_EQ(enc, reference(in)) << "trial " << trial;
    ASSERT_EQ(CompressionDevice::rle_decode(enc), in) << "trial " << trial;
  }
}

TEST(CompressionTest, DecodeRejectsZeroLengthRun) {
  Bytes enc{std::byte{0}, std::byte{42}};  // the encoder never emits run=0
  EXPECT_FALSE(CompressionDevice::rle_decode(enc).has_value());
}

TEST(CompressionTest, ReceiveDropsMalformedFramesInsteadOfCrashing) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<CompressionDevice>());

  // Empty frame, unknown tag, and an RLE body with a zero-length run.
  EXPECT_FALSE(chain.apply_receive(make_packet(0, 1, "")).has_value());
  Packet bad_tag = make_packet(0, 1, "??");
  bad_tag.payload[0] = std::byte{7};
  EXPECT_FALSE(chain.apply_receive(std::move(bad_tag)).has_value());
  Packet bad_run = make_packet(0, 1, "???");
  bad_run.payload[0] = std::byte{1};  // kRle
  bad_run.payload[1] = std::byte{0};  // run length 0
  EXPECT_FALSE(chain.apply_receive(std::move(bad_run)).has_value());
  EXPECT_EQ(dev->decode_failures(), 3u);

  // A well-formed frame still decodes after the malformed ones.
  SendContext ctx;
  std::string body(80, 'm');
  auto frames = wire_frames(chain, make_packet(0, 1, body), ctx);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(CompressionTest, ChainRoundtripCompressible) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<CompressionDevice>());
  std::string body(500, 'z');
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body), ctx);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_LT(frames[0].payload.size(), body.size());
  EXPECT_GT(dev->bytes_saved(), 0u);
  EXPECT_GT(ctx.cpu_cost, 0);

  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(CompressionTest, ChainRoundtripIncompressible) {
  Chain chain;
  chain.add(std::make_unique<CompressionDevice>());
  std::string body;
  for (int i = 0; i < 256; ++i) body.push_back(static_cast<char>(i));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body), ctx);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(ChecksumTest, RoundtripAndCount) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<ChecksumDevice>());
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "payload"), ctx);
  EXPECT_EQ(frames[0].payload.size(), 7u + 8u);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), "payload");
  EXPECT_EQ(dev->packets_verified(), 1u);
}

TEST(ChecksumTest, DetectsTamper) {
  Chain chain;
  chain.add(std::make_unique<ChecksumDevice>());
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "payload"), ctx);
  frames[0].payload[2] ^= std::byte{0xff};
  EXPECT_DEATH(chain.apply_receive(std::move(frames[0])), "checksum mismatch");
}

TEST(ChecksumTest, DropModeDiscardsCorruptFramesSilently) {
  Chain chain;
  auto* dev =
      chain.add(std::make_unique<ChecksumDevice>(/*drop_on_mismatch=*/true));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "payload"), ctx);
  frames[0].payload[2] ^= std::byte{0xff};
  EXPECT_FALSE(chain.apply_receive(std::move(frames[0])).has_value());
  EXPECT_EQ(dev->corrupt_dropped(), 1u);
  EXPECT_EQ(dev->packets_verified(), 0u);

  // Too short to even hold a digest: dropped, not aborted.
  EXPECT_FALSE(chain.apply_receive(make_packet(0, 1, "tiny")).has_value());
  EXPECT_EQ(dev->corrupt_dropped(), 2u);

  // An intact frame still verifies.
  SendContext ctx2;
  auto ok = wire_frames(chain, make_packet(0, 1, "payload"), ctx2);
  EXPECT_TRUE(chain.apply_receive(std::move(ok[0])).has_value());
  EXPECT_EQ(dev->packets_verified(), 1u);
}

TEST(CryptoTest, RoundtripAndCiphertextDiffers) {
  Chain chain;
  chain.add(std::make_unique<CryptoDevice>(0xfeedULL));
  std::string body = "attack at dawn, via siteB";
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body, /*id=*/9), ctx);
  EXPECT_NE(body_of(frames[0]), body);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(CryptoTest, KeystreamVariesPerPacket) {
  Chain chain;
  chain.add(std::make_unique<CryptoDevice>(0xfeedULL));
  SendContext ctx;
  auto f1 = wire_frames(chain, make_packet(0, 1, "same body", 1), ctx);
  auto f2 = wire_frames(chain, make_packet(0, 1, "same body", 2), ctx);
  EXPECT_NE(body_of(f1[0]), body_of(f2[0]));
}

TEST(CryptoTest, KeystreamXorsEachWordLowByteFirst) {
  // Wire format: byte i is XORed with byte i % 8 (least significant
  // first) of the (i / 8)-th SplitMix64 word seeded from key and packet
  // id — on every payload length, including partial final words.
  constexpr std::uint64_t kKey = 0xfeedULL;
  constexpr std::uint64_t kId = 5;
  for (std::size_t size = 0; size <= 40; ++size) {
    Chain chain;
    chain.add(std::make_unique<CryptoDevice>(kKey));
    std::string body(size, '\0');
    for (std::size_t i = 0; i < size; ++i) body[i] = static_cast<char>(i * 7);
    SendContext ctx;
    auto frames = wire_frames(chain, make_packet(0, 1, body, kId), ctx);
    ASSERT_EQ(frames[0].payload.size(), size);
    SplitMix64 stream(kKey ^ (kId * 0x9e3779b97f4a7c15ULL + 1));
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (i % 8 == 0) word = stream.next_u64();
      const auto expect = static_cast<std::byte>(
          static_cast<std::uint8_t>(body[i]) ^ ((word >> (8 * (i % 8))) & 0xff));
      ASSERT_EQ(frames[0].payload[i], expect) << "size " << size << " byte " << i;
    }
  }
}

TEST(StripingTest, SmallPacketsPassThrough) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(4, 1024));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "small"), ctx);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(dev->packets_striped(), 0u);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), "small");
}

TEST(StripingTest, LargePacketSplitsAndReassembles) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(4, 100));
  std::string body;
  for (int i = 0; i < 1000; ++i) body.push_back(static_cast<char>('a' + i % 26));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body, /*id=*/5), ctx);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(dev->packets_striped(), 1u);

  // Deliver out of order; only the last completes.
  std::swap(frames[0], frames[3]);
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    EXPECT_FALSE(chain.apply_receive(std::move(frames[i])).has_value());
  }
  auto out = chain.apply_receive(std::move(frames[3]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);
}

TEST(StripingTest, InterleavedSendersReassembleIndependently) {
  Chain chain;
  chain.add(std::make_unique<StripingDevice>(2, 10));
  std::string b1(64, 'x'), b2(64, 'y');
  SendContext ctx;
  auto f1 = wire_frames(chain, make_packet(0, 2, b1, 11), ctx);
  auto f2 = wire_frames(chain, make_packet(1, 2, b2, 12), ctx);
  ASSERT_EQ(f1.size(), 2u);
  ASSERT_EQ(f2.size(), 2u);
  EXPECT_FALSE(chain.apply_receive(std::move(f1[0])).has_value());
  EXPECT_FALSE(chain.apply_receive(std::move(f2[1])).has_value());
  auto o2 = chain.apply_receive(std::move(f2[0]));
  ASSERT_TRUE(o2.has_value());
  EXPECT_EQ(body_of(*o2), b2);
  auto o1 = chain.apply_receive(std::move(f1[1]));
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(body_of(*o1), b1);
}

TEST(StripingTest, DuplicateFragmentAborts) {
  // The reliability layer below striping guarantees exactly-once frames;
  // a duplicate fragment reaching the reassembler means that invariant
  // broke and must be loud, not a silent overwrite.
  Chain chain;
  chain.add(std::make_unique<StripingDevice>(2, 10));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 2, std::string(64, 'd'), 21),
                            ctx);
  ASSERT_EQ(frames.size(), 2u);
  Packet dup = frames[0];
  EXPECT_FALSE(chain.apply_receive(std::move(frames[0])).has_value());
  EXPECT_DEATH(chain.apply_receive(std::move(dup)), "duplicate fragment");
}

TEST(StripingTest, DropSourceSquashesPartialsAndLateFragments) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(2, 10));
  std::string b0(64, 'p'), b1(64, 'q');
  SendContext ctx;
  auto f0 = wire_frames(chain, make_packet(0, 2, b0, 31), ctx);
  auto f1 = wire_frames(chain, make_packet(1, 2, b1, 32), ctx);

  // One fragment of each reassembly has arrived when source 0 dies.
  EXPECT_FALSE(chain.apply_receive(std::move(f0[0])).has_value());
  EXPECT_FALSE(chain.apply_receive(std::move(f1[0])).has_value());
  EXPECT_EQ(dev->pending_reassemblies(), 2u);

  dev->drop_source(0);
  EXPECT_EQ(dev->pending_reassemblies(), 1u);  // only source 1 survives
  EXPECT_EQ(dev->fragments_squashed(), 1u);    // the buffered piece

  // Source 0's second fragment was already on the wire: it must be
  // dropped, not resurrect a half-dead reassembly.
  EXPECT_FALSE(chain.apply_receive(std::move(f0[1])).has_value());
  EXPECT_EQ(dev->fragments_squashed(), 2u);
  EXPECT_EQ(dev->pending_reassemblies(), 1u);

  // The untouched source still completes.
  auto out = chain.apply_receive(std::move(f1[1]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), b1);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);
}

TEST(StripingTest, SameOriginalIdFromTwoSourcesStaysSeparate) {
  // Fabric packet ids are only unique per sender; reassembly must key on
  // (source, id), so colliding ids from different sources cannot mix.
  Chain chain;
  chain.add(std::make_unique<StripingDevice>(2, 10));
  std::string b0(64, 'A'), b1(64, 'B');
  SendContext ctx;
  auto f0 = wire_frames(chain, make_packet(0, 2, b0, /*id=*/77), ctx);
  auto f1 = wire_frames(chain, make_packet(1, 2, b1, /*id=*/77), ctx);

  EXPECT_FALSE(chain.apply_receive(std::move(f0[0])).has_value());
  EXPECT_FALSE(chain.apply_receive(std::move(f1[0])).has_value());
  auto o1 = chain.apply_receive(std::move(f1[1]));
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(body_of(*o1), b1);
  auto o0 = chain.apply_receive(std::move(f0[1]));
  ASSERT_TRUE(o0.has_value());
  EXPECT_EQ(body_of(*o0), b0);
}

TEST(StripingTest, PendingReassembliesTracksInFlightAndCleansUp) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(4, 16));
  std::string b0(120, 'x'), b1(120, 'y');
  SendContext ctx;
  auto f0 = wire_frames(chain, make_packet(0, 2, b0, 41), ctx);
  auto f1 = wire_frames(chain, make_packet(0, 2, b1, 42), ctx);
  ASSERT_EQ(f0.size(), 4u);
  ASSERT_EQ(f1.size(), 4u);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);

  // Interleave the two reassemblies from the same source.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(chain.apply_receive(std::move(f0[i])).has_value());
    EXPECT_FALSE(chain.apply_receive(std::move(f1[i])).has_value());
  }
  EXPECT_EQ(dev->pending_reassemblies(), 2u);

  auto o0 = chain.apply_receive(std::move(f0[3]));
  ASSERT_TRUE(o0.has_value());
  EXPECT_EQ(body_of(*o0), b0);
  EXPECT_EQ(dev->pending_reassemblies(), 1u);

  auto o1 = chain.apply_receive(std::move(f1[3]));
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(body_of(*o1), b1);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);
}

TEST(ComposedChainTest, FullStackRoundtrip) {
  // delay -> compress -> stripe -> checksum (per fragment) -> crypto.
  Topology topo = Topology::two_cluster(4);
  Chain chain;
  chain.add(std::make_unique<DelayDevice>(&topo, sim::milliseconds(4)));
  chain.add(std::make_unique<CompressionDevice>());
  chain.add(std::make_unique<StripingDevice>(3, 50));
  chain.add(std::make_unique<ChecksumDevice>());
  chain.add(std::make_unique<CryptoDevice>(0xabcdULL));

  std::string body(400, 'Q');
  body += "trailer-entropy-0123456789";
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 2, body, 77), ctx);
  ASSERT_GT(frames.size(), 1u);
  // Held above the striping device, every fragment carries the delay once.
  for (const Packet& f : frames) EXPECT_EQ(f.hold_ns, sim::milliseconds(4));

  std::optional<Packet> out;
  for (auto& f : frames) {
    auto r = chain.apply_receive(std::move(f));
    if (r.has_value()) {
      EXPECT_FALSE(out.has_value());
      out = std::move(r);
    }
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

}  // namespace
