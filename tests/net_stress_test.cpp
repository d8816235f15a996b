// Message-layer stress and invariants: high packet volumes through the
// wall-clock fabric hosting every node, bandwidth-order effects in the
// SimFabric, and scenario-level delay-device wiring.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/devices.hpp"
#include "net/sim_fabric.hpp"
#include "net/striping.hpp"
#include "net/socket_fabric.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace mdo;
using net::Chain;
using net::Packet;
using net::Topology;

Packet sized_packet(net::NodeId src, net::NodeId dst, std::size_t bytes,
                    std::byte fill = std::byte{7}) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload.assign(bytes, fill);
  return p;
}

TEST(ThreadFabricStress, ThousandsOfPacketsAllArriveIntact) {
  Topology topo = Topology::two_cluster(4);
  net::FixedLatencyModel model(sim::microseconds(50));
  Chain chain;
  chain.add(std::make_unique<net::ChecksumDevice>());
  net::SocketFabric fabric(&topo, &model, std::move(chain));
  fabric.start();

  constexpr int kPerNode = 500;
  std::atomic<int> received{0};
  std::atomic<std::uint64_t> byte_sum{0};
  for (net::NodeId n = 0; n < 4; ++n) {
    fabric.set_delivery_handler(n, [&](Packet&& p) {
      byte_sum.fetch_add(p.payload.size());
      received.fetch_add(1);
    });
  }
  std::uint64_t sent_bytes = 0;
  SplitMix64 rng(3);
  for (int i = 0; i < kPerNode * 4; ++i) {
    auto src = static_cast<net::NodeId>(i % 4);
    auto dst = static_cast<net::NodeId>(rng.bounded(4));
    if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % 4);
    std::size_t bytes = 16 + rng.bounded(512);
    sent_bytes += bytes;
    fabric.send(sized_packet(src, dst, bytes));
  }
  for (int spin = 0; spin < 5000 && received.load() < kPerNode * 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), kPerNode * 4);
  EXPECT_EQ(byte_sum.load(), sent_bytes);
  EXPECT_EQ(fabric.stats().packets_delivered,
            static_cast<std::uint64_t>(kPerNode * 4));
}

TEST(ThreadFabricStress, ConcurrentSendersAreSafe) {
  Topology topo = Topology::single_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(10));
  net::SocketFabric fabric(&topo, &model, Chain{});
  fabric.start();
  std::atomic<int> received{0};
  fabric.set_delivery_handler(1, [&](Packet&&) { received.fetch_add(1); });
  fabric.set_delivery_handler(0, [&](Packet&&) { received.fetch_add(1); });

  constexpr int kThreads = 4;
  constexpr int kEach = 250;
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&fabric, t] {
      for (int i = 0; i < kEach; ++i) {
        fabric.send(sized_packet(0, 1, 32 + static_cast<std::size_t>(t)));
      }
    });
  }
  for (auto& s : senders) s.join();
  for (int spin = 0; spin < 5000 && received.load() < kThreads * kEach; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), kThreads * kEach);
}

TEST(SimFabricOrder, BandwidthReordersBySizeOnFreeLinks) {
  // Without contention, a small packet sent just after a huge one
  // overtakes it (separate flows) — and with the serialized WAN pipe it
  // cannot.
  auto run = [](bool contention) {
    sim::Engine engine;
    Topology topo = Topology::two_cluster(2);
    net::GridLatencyModel::Config cfg;
    cfg.inter = {sim::microseconds(100), 10.0};  // slow: 10 bytes/us
    cfg.wan_contention = contention;
    net::GridLatencyModel model(&topo, cfg);
    net::SimFabric fabric(&engine, &topo, &model, Chain{});
    std::vector<std::size_t> arrival_sizes;
    fabric.set_delivery_handler(1, [&](Packet&& p) {
      arrival_sizes.push_back(p.payload.size());
    });
    fabric.send(sized_packet(0, 1, 100000));  // 10 ms serialization
    fabric.send(sized_packet(0, 1, 10));      // 1 us
    engine.run();
    return arrival_sizes;
  };
  auto free_order = run(false);
  ASSERT_EQ(free_order.size(), 2u);
  EXPECT_EQ(free_order[0], 10u);  // small overtakes
  auto piped_order = run(true);
  EXPECT_EQ(piped_order[0], 100000u);  // FIFO pipe preserves order
}

TEST(SimFabricOrder, StripingShortensLargeTransferLatency) {
  // Four rails cut per-fragment serialization 4x; the reassembled packet
  // completes sooner than the unstriped send on the same link.
  auto completion_time = [](bool striped) {
    sim::Engine engine;
    Topology topo = Topology::single_cluster(2);
    net::GridLatencyModel::Config cfg;
    cfg.intra = {sim::microseconds(10), 10.0};
    net::GridLatencyModel model(&topo, cfg);
    Chain chain;
    if (striped) chain.add(std::make_unique<net::StripingDevice>(4, 1024));
    net::SimFabric fabric(&engine, &topo, &model, std::move(chain));
    sim::TimeNs done = -1;
    fabric.set_delivery_handler(1, [&](Packet&&) { done = engine.now(); });
    fabric.send(sized_packet(0, 1, 40000));  // 4 ms unstriped
    engine.run();
    return done;
  };
  sim::TimeNs plain = completion_time(false);
  sim::TimeNs striped = completion_time(true);
  EXPECT_LT(striped, plain);
  EXPECT_LT(striped, plain / 2);  // ~4x less serialization per fragment
}

TEST(ScenarioWiring, PairOverridesFlowThroughDelayDevice) {
  sim::Engine engine;
  Topology topo = Topology::two_cluster(4);
  net::FixedLatencyModel model(0);
  Chain chain;
  auto* delay =
      chain.add(std::make_unique<net::DelayDevice>(&topo, sim::milliseconds(5)));
  delay->set_pair_delay(0, 2, sim::milliseconds(40));
  net::SimFabric fabric(&engine, &topo, &model, std::move(chain));
  std::vector<std::pair<net::NodeId, sim::TimeNs>> arrivals;
  for (net::NodeId n = 0; n < 4; ++n) {
    fabric.set_delivery_handler(
        n, [&, n](Packet&&) { arrivals.emplace_back(n, engine.now()); });
  }
  fabric.send(sized_packet(0, 2, 0));  // overridden pair: 40 ms
  fabric.send(sized_packet(1, 3, 0));  // default cross-cluster: 5 ms
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, 3);
  EXPECT_EQ(arrivals[0].second, sim::milliseconds(5));
  EXPECT_EQ(arrivals[1].first, 2);
  EXPECT_EQ(arrivals[1].second, sim::milliseconds(40));
}

}  // namespace
