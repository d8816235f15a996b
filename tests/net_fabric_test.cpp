// Fabric delivery semantics: the Sim clock, the wall-clock fabric, and
// one contract suite that every clock must pass.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/devices.hpp"
#include "net/faults.hpp"
#include "net/sim_fabric.hpp"
#include "net/socket_fabric.hpp"
#include "net/striping.hpp"
#include "sim/engine.hpp"

namespace {

using namespace mdo;
using net::Chain;
using net::Packet;
using net::SimFabric;
using net::SocketFabric;
using net::Topology;

Packet text_packet(net::NodeId src, net::NodeId dst, const std::string& body) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload.resize(body.size());
  std::memcpy(p.payload.data(), body.data(), body.size());
  return p;
}

TEST(SimFabricTest, DeliversAtModeledTime) {
  sim::Engine engine;
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(10));
  SimFabric fabric(&engine, &topo, &model, Chain{});

  sim::TimeNs delivered_at = -1;
  fabric.set_delivery_handler(1, [&](Packet&& p) {
    delivered_at = engine.now();
    EXPECT_EQ(p.dst, 1);
  });
  fabric.set_delivery_handler(0, [](Packet&&) { FAIL(); });

  fabric.send(text_packet(0, 1, "hi"));
  engine.run();
  EXPECT_EQ(delivered_at, sim::microseconds(10));
  EXPECT_EQ(fabric.stats().packets_sent, 1u);
  EXPECT_EQ(fabric.stats().packets_delivered, 1u);
  EXPECT_EQ(fabric.stats().wan_packets, 1u);
}

TEST(SimFabricTest, DelayDeviceAddsToDeliveryTime) {
  sim::Engine engine;
  Topology topo = Topology::two_cluster(4);
  net::FixedLatencyModel model(sim::microseconds(10));
  Chain chain;
  chain.add(std::make_unique<net::DelayDevice>(&topo, sim::milliseconds(5)));
  SimFabric fabric(&engine, &topo, &model, std::move(chain));

  std::vector<std::pair<net::NodeId, sim::TimeNs>> deliveries;
  for (net::NodeId n = 0; n < 4; ++n) {
    fabric.set_delivery_handler(n, [&, n](Packet&&) {
      deliveries.emplace_back(n, engine.now());
    });
  }
  fabric.send(text_packet(0, 1, "intra"));
  fabric.send(text_packet(0, 2, "inter"));
  engine.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], std::make_pair(net::NodeId{1}, sim::microseconds(10)));
  EXPECT_EQ(deliveries[1].first, 2);
  EXPECT_EQ(deliveries[1].second, sim::milliseconds(5) + sim::microseconds(10));
}

TEST(SimFabricTest, StripedFragmentsArriveAsOne) {
  sim::Engine engine;
  Topology topo = Topology::single_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(1));
  Chain chain;
  chain.add(std::make_unique<net::StripingDevice>(4, 16));
  SimFabric fabric(&engine, &topo, &model, std::move(chain));

  int deliveries = 0;
  std::string got;
  fabric.set_delivery_handler(1, [&](Packet&& p) {
    ++deliveries;
    got.assign(reinterpret_cast<const char*>(p.payload.data()), p.payload.size());
  });
  std::string body(100, 'k');
  fabric.send(text_packet(0, 1, body));
  engine.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, body);
}

/// Arrival times at node 1 of one `bytes`-byte send from node 0 through
/// `chain`, over 50 us links.
std::vector<sim::TimeNs> arrivals_of(const Topology& topo, Chain chain,
                                     std::size_t bytes) {
  sim::Engine engine;
  net::FixedLatencyModel model(sim::microseconds(50));
  SimFabric fabric(&engine, &topo, &model, std::move(chain));
  std::vector<sim::TimeNs> at;
  fabric.set_delivery_handler(1, [&](Packet&&) { at.push_back(engine.now()); });
  fabric.send(text_packet(0, 1, std::string(bytes, 'd')));
  engine.run();
  return at;
}

TEST(SimFabricTest, StripedSendIsHeldOnce) {
  // The delay device holds each frame, not the send: a payload striped
  // into four rails above it arrives one delay after it left, as a
  // payload too small to stripe does.
  const Topology topo = Topology::two_cluster(2);
  auto striped = [&] {
    Chain chain;
    chain.add(std::make_unique<net::StripingDevice>(4, 64));
    chain.add(std::make_unique<net::DelayDevice>(&topo, sim::milliseconds(5)));
    return chain;
  };
  const std::vector<sim::TimeNs> once{sim::milliseconds(5) +
                                      sim::microseconds(50)};
  EXPECT_EQ(arrivals_of(topo, striped(), 16), once);
  EXPECT_EQ(arrivals_of(topo, striped(), 256), once);
}

TEST(SimFabricTest, DuplicatedFrameIsHeldOnce) {
  // A frame the fault device duplicates above the delay device leaves as
  // two frames; each twin is held for the delay once.
  const Topology topo = Topology::two_cluster(2);
  net::FaultConfig twice;
  twice.duplicate = 1.0;
  Chain chain;
  chain.add(std::make_unique<net::FaultDevice>(twice));
  chain.add(std::make_unique<net::DelayDevice>(&topo, sim::milliseconds(5)));
  const sim::TimeNs due = sim::milliseconds(5) + sim::microseconds(50);
  EXPECT_EQ(arrivals_of(topo, std::move(chain), 16),
            (std::vector<sim::TimeNs>{due, due}));
}

TEST(SimFabricTest, WireOrderIsFifoPerLink) {
  sim::Engine engine;
  Topology topo = Topology::single_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(5));
  SimFabric fabric(&engine, &topo, &model, Chain{});

  std::vector<std::string> order;
  fabric.set_delivery_handler(1, [&](Packet&& p) {
    order.emplace_back(reinterpret_cast<const char*>(p.payload.data()),
                       p.payload.size());
  });
  fabric.send(text_packet(0, 1, "first"));
  fabric.send(text_packet(0, 1, "second"));
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(ThreadFabricTest, DeliversAcrossThreads) {
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::milliseconds(1));
  SocketFabric fabric(&topo, &model, Chain{});
  fabric.start();

  std::atomic<int> delivered{0};
  std::string got;
  std::mutex m;
  fabric.set_delivery_handler(1, [&](Packet&& p) {
    std::lock_guard<std::mutex> lock(m);
    got.assign(reinterpret_cast<const char*>(p.payload.data()), p.payload.size());
    delivered.fetch_add(1);
  });
  fabric.send(text_packet(0, 1, "over the wire"));
  for (int spin = 0; spin < 500 && delivered.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), 1);
  std::lock_guard<std::mutex> lock(m);
  EXPECT_EQ(got, "over the wire");
}

TEST(ThreadFabricTest, RespectsModeledDelayInRealTime) {
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::milliseconds(30));
  SocketFabric fabric(&topo, &model, Chain{});
  fabric.start();

  std::atomic<bool> delivered{false};
  auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> elapsed_ms{0};
  fabric.set_delivery_handler(1, [&](Packet&&) {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    delivered = true;
  });
  fabric.send(text_packet(0, 1, "slow"));
  for (int spin = 0; spin < 2000 && !delivered.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(delivered.load());
  EXPECT_GE(elapsed_ms.load(), 29);
}

TEST(ThreadFabricTest, ShutdownIsIdempotentAndDropsPending) {
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::seconds(100));  // never delivers
  auto fabric = std::make_unique<SocketFabric>(&topo, &model, Chain{});
  fabric->start();
  fabric->set_delivery_handler(1, [](Packet&&) { FAIL(); });
  fabric->send(text_packet(0, 1, "never"));
  fabric->shutdown();
  fabric->shutdown();
  fabric.reset();
}

// -- the fabric contract ------------------------------------------------------
// One scripted traffic mix through an [injector][striping][delay] chain,
// run on every clock: the Sim fabric, the wall-clock fabric hosting every
// node, and two wall-clock fabrics (one node each) joined by a
// socketpair. Every clock must count and deliver the same.

constexpr sim::TimeNs kContractLatency = sim::microseconds(50);
constexpr sim::TimeNs kContractDelay = sim::milliseconds(5);
constexpr std::size_t kStripeRails = 4;
constexpr std::size_t kStripeMinBytes = 64;

/// Originates a frame of its own from a host timer, the way the
/// reliability device sends acks and retransmissions.
class TimerInjector final : public net::FilterDevice {
 public:
  const char* name() const override { return "injector"; }
  void inject_after(sim::TimeNs dt, Packet packet) {
    host_->host_schedule(dt, [this, p = std::move(packet)]() mutable {
      host_->inject_send(this, std::move(p));
    });
  }
};

Chain contract_chain(const Topology* topo, TimerInjector** injector) {
  Chain chain;
  *injector = chain.add(std::make_unique<TimerInjector>());
  chain.add(std::make_unique<net::StripingDevice>(kStripeRails, kStripeMinBytes));
  chain.add(std::make_unique<net::DelayDevice>(topo, kContractDelay));
  return chain;
}

/// Polls `done` until it holds or a generous budget runs out.
bool wait_for(const std::function<bool()>& done) {
  for (int spin = 0; spin < 10000 && !done(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

struct SimRig {
  static constexpr const char* kName = "Sim";
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model{kContractLatency};
  sim::Engine engine;
  TimerInjector* injector = nullptr;
  SimFabric fabric{&engine, &topo, &model, contract_chain(&topo, &injector)};

  void start() {}
  net::Fabric& fabric_of(net::NodeId) { return fabric; }
  net::DeviceHost& host_of(net::NodeId) { return fabric; }
  TimerInjector& injector_of(net::NodeId) { return *injector; }
  std::vector<net::Fabric*> fabrics() { return {&fabric}; }
  bool settle(const std::function<bool()>& done) {
    engine.run();
    return done();
  }
  static std::optional<net::NodeId> hosted_alone(net::NodeId) {
    return std::nullopt;
  }
};

/// The wall-clock fabric of one address space: it hosts every node.
struct SharedWallRig {
  static constexpr const char* kName = "WallShared";
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model{kContractLatency};
  TimerInjector* injector = nullptr;
  SocketFabric fabric{&topo, &model, contract_chain(&topo, &injector)};

  void start() { fabric.start(); }
  net::Fabric& fabric_of(net::NodeId) { return fabric; }
  net::DeviceHost& host_of(net::NodeId) { return fabric; }
  TimerInjector& injector_of(net::NodeId) { return *injector; }
  std::vector<net::Fabric*> fabrics() { return {&fabric}; }
  bool settle(const std::function<bool()>& done) { return wait_for(done); }
  static std::optional<net::NodeId> hosted_alone(net::NodeId) {
    return std::nullopt;
  }
};

std::pair<int, int> stream_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0, fds),
            0);
  return {fds[0], fds[1]};
}

/// Two wall-clock fabrics, one node each, joined by a socketpair.
struct PairedWallRig {
  static constexpr const char* kName = "WallPaired";
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model{kContractLatency};
  std::pair<int, int> fds = stream_pair();
  net::SocketFabric::Clock::time_point epoch = net::SocketFabric::Clock::now();
  TimerInjector* injectors[2] = {nullptr, nullptr};
  net::SocketFabric fab0{&topo, &model, contract_chain(&topo, &injectors[0]),
                         0, {-1, fds.first}, epoch};
  net::SocketFabric fab1{&topo, &model, contract_chain(&topo, &injectors[1]),
                         1, {fds.second, -1}, epoch};

  void start() {
    fab0.start();
    fab1.start();
  }
  net::SocketFabric& at(net::NodeId node) { return node == 0 ? fab0 : fab1; }
  net::Fabric& fabric_of(net::NodeId node) { return at(node); }
  net::DeviceHost& host_of(net::NodeId node) { return at(node); }
  TimerInjector& injector_of(net::NodeId node) {
    return *injectors[static_cast<std::size_t>(node)];
  }
  std::vector<net::Fabric*> fabrics() { return {&fab0, &fab1}; }
  bool settle(const std::function<bool()>& done) { return wait_for(done); }
  static std::optional<net::NodeId> hosted_alone(net::NodeId node) {
    return node;
  }
};

template <class Rig>
class FabricContract : public ::testing::Test {
 protected:
  struct Arrival {
    net::NodeId node;
    std::string body;
    sim::TimeNs at;
  };

  void SetUp() override {
    for (net::NodeId n : {0, 1}) {
      rig_.fabric_of(n).set_delivery_handler(n, [this, n](Packet&& p) {
        const sim::TimeNs at = rig_.host_of(n).host_now();
        std::lock_guard<std::mutex> lock(mutex_);
        arrivals_.push_back(
            {n, std::string(reinterpret_cast<const char*>(p.payload.data()),
                            p.payload.size()),
             at});
      });
    }
    for (net::Fabric* fabric : rig_.fabrics()) {
      fabric->set_node_up_probe(
          [this](net::NodeId n) { return n != 1 || !node1_dead_.load(); });
    }
    rig_.start();
  }

  void send(net::NodeId src, net::NodeId dst, const std::string& body) {
    bytes_sent_ += body.size();
    rig_.fabric_of(src).send(text_packet(src, dst, body));
  }

  std::size_t delivered() {
    std::lock_guard<std::mutex> lock(mutex_);
    return arrivals_.size();
  }

  /// Five packets that all arrive, one of them striped and one injected
  /// by a device timer, then one from a node that has since died.
  void run_script() {
    held_sent_at_ = rig_.host_of(0).host_now();
    send(0, 1, "held");                   // cross-cluster: delay device
    send(0, 1, std::string(256, 's'));    // striped into 4 fragments
    send(1, 0, "reply");
    send(0, 0, "loop");                   // same cluster: no hold
    rig_.injector_of(0).inject_after(sim::milliseconds(1),
                                     text_packet(0, 1, "injected"));
    ASSERT_TRUE(rig_.settle([this] { return delivered() == 5; }));
    node1_dead_ = true;
    send(1, 0, "ghost");
  }

  const Arrival* arrival(const std::string& body) {
    for (const Arrival& a : arrivals_) {
      if (a.body == body) return &a;
    }
    return nullptr;
  }

  net::Fabric::Stats totals() {
    net::Fabric::Stats sum;
    for (net::Fabric* fabric : rig_.fabrics()) {
      const net::Fabric::Stats s = fabric->stats();
      sum.packets_sent += s.packets_sent;
      sum.bytes_sent += s.bytes_sent;
      sum.packets_delivered += s.packets_delivered;
      sum.frames_injected += s.frames_injected;
      sum.dead_node_drops += s.dead_node_drops;
      sum.wire_frames += s.wire_frames;
      sum.wan_wire_frames += s.wan_wire_frames;
    }
    return sum;
  }

  std::mutex mutex_;
  std::vector<Arrival> arrivals_;
  std::atomic<bool> node1_dead_{false};
  std::uint64_t bytes_sent_ = 0;
  sim::TimeNs held_sent_at_ = 0;
  Rig rig_;  // last: its fabrics stop before the state their handlers use
};

struct RigName {
  template <class Rig>
  static std::string GetName(int) {
    return Rig::kName;
  }
};

using Rigs = ::testing::Types<SimRig, SharedWallRig, PairedWallRig>;
TYPED_TEST_SUITE(FabricContract, Rigs, RigName);

TYPED_TEST(FabricContract, TrafficMixCountsTheSameOnEveryClock) {
  ASSERT_NO_FATAL_FAILURE(this->run_script());
  const net::Fabric::Stats s = this->totals();
  EXPECT_EQ(s.packets_sent, 5u);
  EXPECT_EQ(s.bytes_sent, this->bytes_sent_);
  EXPECT_EQ(s.frames_injected, 1u);
  // held + 4 fragments + reply + loop + injected; the ghost never leaves.
  EXPECT_EQ(s.wire_frames, 8u);
  EXPECT_EQ(s.wan_wire_frames, 7u);
  EXPECT_EQ(s.packets_delivered, 5u);
}

TYPED_TEST(FabricContract, DelayDeviceHoldsOnlyCrossClusterFrames) {
  ASSERT_NO_FATAL_FAILURE(this->run_script());
  std::lock_guard<std::mutex> lock(this->mutex_);
  const auto* held = this->arrival("held");
  const auto* loop = this->arrival("loop");
  ASSERT_NE(held, nullptr);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(held->node, 1);
  EXPECT_GE(held->at - this->held_sent_at_, kContractDelay);
  EXPECT_LT(loop->at, held->at);
}

TYPED_TEST(FabricContract, StripedFragmentsArriveAsOne) {
  ASSERT_NO_FATAL_FAILURE(this->run_script());
  std::lock_guard<std::mutex> lock(this->mutex_);
  const auto* striped = this->arrival(std::string(256, 's'));
  ASSERT_NE(striped, nullptr);
  EXPECT_EQ(striped->node, 1);
  EXPECT_EQ(this->arrivals_.size(), 5u);
}

TYPED_TEST(FabricContract, DeadSourceFrameIsSquashedAndCounted) {
  ASSERT_NO_FATAL_FAILURE(this->run_script());
  EXPECT_EQ(this->totals().dead_node_drops, 1u);
  std::lock_guard<std::mutex> lock(this->mutex_);
  EXPECT_EQ(this->arrival("ghost"), nullptr);
}

TYPED_TEST(FabricContract, LocalNodeFollowsTheNodesAFabricHosts) {
  for (net::NodeId n : {0, 1}) {
    EXPECT_EQ(this->rig_.host_of(n).host_local_node(),
              TypeParam::hosted_alone(n))
        << "node " << n;
  }
}

}  // namespace
