// Fault injection and the reliability device: deterministic fault
// streams, exactly-once in-order delivery over a hostile wire, replay
// reproducibility, selective-repeat loss recovery (per-frame deadlines,
// SACK, fast retransmit), and the full stencil application running
// unharmed across a lossy WAN.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "apps/stencil/stencil.hpp"
#include "grid/scenario.hpp"
#include "net/faults.hpp"
#include "net/metrics.hpp"
#include "net/reliable.hpp"
#include "net/sim_fabric.hpp"
#include "obs/metrics.hpp"
#include "net/thread_fabric.hpp"
#include "sim/engine.hpp"

namespace {

using namespace mdo;
using net::Chain;
using net::FaultConfig;
using net::FaultDevice;
using net::Packet;
using net::ReliableConfig;
using net::SendContext;
using net::SimFabric;
using net::ThreadFabric;
using net::Topology;

Packet text_packet(net::NodeId src, net::NodeId dst, const std::string& body,
                   std::uint64_t id = 1) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.id = id;
  p.payload.resize(body.size());
  std::memcpy(p.payload.data(), body.data(), body.size());
  return p;
}

std::string body_of(const Packet& p) {
  return std::string(reinterpret_cast<const char*>(p.payload.data()),
                     p.payload.size());
}

// -- FaultDevice in isolation --------------------------------------------------

std::vector<Packet> run_faults(FaultDevice& dev, int frames) {
  std::vector<Packet> out;
  for (int i = 0; i < frames; ++i) {
    std::vector<Packet> batch;
    batch.push_back(text_packet(0, 1, "frame-" + std::to_string(i),
                                static_cast<std::uint64_t>(i)));
    SendContext ctx;
    dev.send_transform(batch, ctx);
    for (auto& p : batch) out.push_back(std::move(p));
  }
  return out;
}

TEST(FaultDeviceTest, SameSeedSameFaults) {
  FaultConfig cfg;
  cfg.drop = 0.1;
  cfg.duplicate = 0.1;
  cfg.corrupt = 0.1;
  cfg.reorder = 0.3;
  cfg.reorder_jitter = sim::microseconds(500);
  cfg.seed = 42;
  FaultDevice a(cfg), b(cfg);
  auto out_a = run_faults(a, 2000);
  auto out_b = run_faults(b, 2000);

  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
  EXPECT_EQ(a.counters().duplicated, b.counters().duplicated);
  EXPECT_EQ(a.counters().corrupted, b.counters().corrupted);
  EXPECT_EQ(a.counters().reordered, b.counters().reordered);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].payload, out_b[i].payload);
    EXPECT_EQ(out_a[i].hold_ns, out_b[i].hold_ns);
  }
}

TEST(FaultDeviceTest, DifferentSeedDifferentFaults) {
  FaultConfig cfg;
  cfg.drop = 0.5;
  cfg.seed = 1;
  FaultDevice a(cfg);
  cfg.seed = 2;
  FaultDevice b(cfg);
  run_faults(a, 500);
  run_faults(b, 500);
  EXPECT_NE(a.counters().dropped, b.counters().dropped);
}

TEST(FaultDeviceTest, DropRateNearConfigured) {
  FaultConfig cfg;
  cfg.drop = 0.3;
  cfg.seed = 7;
  FaultDevice dev(cfg);
  const int frames = 20000;
  run_faults(dev, frames);
  EXPECT_EQ(dev.counters().seen, static_cast<std::uint64_t>(frames));
  double rate = static_cast<double>(dev.counters().dropped) / frames;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultDeviceTest, CorruptAlwaysChangesPayload) {
  FaultConfig cfg;
  cfg.corrupt = 1.0;
  FaultDevice dev(cfg);
  for (int i = 0; i < 100; ++i) {
    std::vector<Packet> batch;
    batch.push_back(text_packet(0, 1, "x"));  // single byte: worst case
    SendContext ctx;
    dev.send_transform(batch, ctx);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_NE(body_of(batch[0]), "x");
  }
  EXPECT_EQ(dev.counters().corrupted, 100u);
}

TEST(FaultDeviceTest, DuplicateEmitsIdenticalTwin) {
  FaultConfig cfg;
  cfg.duplicate = 1.0;
  FaultDevice dev(cfg);
  std::vector<Packet> batch;
  batch.push_back(text_packet(0, 1, "twins"));
  SendContext ctx;
  dev.send_transform(batch, ctx);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(body_of(batch[0]), "twins");
  EXPECT_EQ(body_of(batch[1]), "twins");
  EXPECT_EQ(dev.counters().duplicated, 1u);
}

// -- reliability over a faulty SimFabric --------------------------------------

/// The wire's one-way delay: `before` until fabric time `at`, `after`
/// for frames injected from then on.
class SteppedLatencyModel final : public net::LatencyModel {
 public:
  SteppedLatencyModel(sim::TimeNs before, sim::TimeNs at, sim::TimeNs after)
      : before_(before), at_(at), after_(after) {}
  sim::TimeNs delivery_delay(net::NodeId, net::NodeId, std::size_t,
                             sim::TimeNs now) override {
    return now < at_ ? before_ : after_;
  }

 private:
  sim::TimeNs before_;
  sim::TimeNs at_;
  sim::TimeNs after_;
};

struct LossySim {
  sim::Engine engine;
  Topology topo = Topology::two_cluster(4);
  std::unique_ptr<net::LatencyModel> model;
  std::unique_ptr<SimFabric> fabric;
  net::ReliabilityStack stack;
  obs::MetricRegistry metrics;  ///< fabric-level harness: no Machine to own one
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<std::string>>
      received;
  sim::TimeNs last_delivery = 0;  ///< fabric time of the latest delivery

  /// A 100 us wire unless `wire` says otherwise; cross-cluster frames
  /// additionally wait `wan_delay` in a delay device.
  explicit LossySim(const FaultConfig& faults,
                    sim::TimeNs rto = sim::microseconds(500),
                    std::unique_ptr<net::LatencyModel> wire = nullptr,
                    sim::TimeNs wan_delay = 0)
      : model(wire != nullptr ? std::move(wire)
                              : std::make_unique<net::FixedLatencyModel>(
                                    sim::microseconds(100))) {
    Chain chain;
    ReliableConfig rel;
    rel.rto_initial = rto;
    stack = net::install_reliability_stack(chain, &topo, rel, faults,
                                           wan_delay);
    net::register_metrics(metrics, stack);
    fabric = std::make_unique<SimFabric>(&engine, &topo, model.get(),
                                         std::move(chain));
    for (net::NodeId n = 0; n < 4; ++n) {
      fabric->set_delivery_handler(n, [this, n](Packet&& p) {
        received[{p.src, n}].push_back(body_of(p));
        last_delivery = engine.now();
      });
    }
  }

  /// Send `body` from src to dst at fabric time `at`.
  void send_at(sim::TimeNs at, net::NodeId src, net::NodeId dst,
               std::string body) {
    engine.schedule_at(at, [this, src, dst, body = std::move(body)] {
      fabric->send(text_packet(src, dst, body));
    });
  }
};

FaultConfig hostile_wan(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.drop = 0.05;
  cfg.duplicate = 0.05;
  cfg.corrupt = 0.03;
  cfg.reorder = 0.25;
  cfg.reorder_jitter = sim::microseconds(400);
  cfg.seed = seed;
  return cfg;
}

TEST(ReliableSimTest, ExactlyOnceInOrderUnderAllFaults) {
  LossySim sim(hostile_wan(17));
  const int per_flow = 400;
  std::vector<std::pair<net::NodeId, net::NodeId>> flows{
      {0, 2}, {2, 0}, {1, 3}};
  for (int i = 0; i < per_flow; ++i) {
    for (auto [src, dst] : flows) {
      sim.fabric->send(text_packet(src, dst, "msg-" + std::to_string(i)));
    }
  }
  sim.engine.run();

  for (auto [src, dst] : flows) {
    const auto& got = sim.received[{src, dst}];
    ASSERT_EQ(got.size(), static_cast<std::size_t>(per_flow))
        << "flow " << src << "->" << dst;
    for (int i = 0; i < per_flow; ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(i)], "msg-" + std::to_string(i));
    }
  }
  // The wire really was hostile, and the protocol really did repair it.
  EXPECT_GT(sim.stack.faults->counters().dropped, 0u);
  EXPECT_GT(sim.stack.faults->counters().duplicated, 0u);
  EXPECT_GT(sim.stack.checksum->corrupt_dropped(), 0u);
  EXPECT_GT(sim.stack.reliable->counters().retransmits, 0u);
  EXPECT_GT(sim.stack.reliable->counters().duplicates_suppressed, 0u);
  // Quiesced: nothing awaiting ack, nothing parked out of order.
  EXPECT_EQ(sim.stack.reliable->unacked_frames(), 0u);
  EXPECT_EQ(sim.stack.reliable->buffered_packets(), 0u);
  EXPECT_EQ(sim.fabric->stats().packets_delivered,
            static_cast<std::uint64_t>(per_flow) * flows.size());
}

TEST(ReliableSimTest, ReorderOnlyStillDeliversInOrder) {
  FaultConfig cfg;
  cfg.reorder = 1.0;
  cfg.reorder_jitter = sim::microseconds(800);
  cfg.seed = 3;
  LossySim sim(cfg, /*rto=*/sim::milliseconds(5));
  for (int i = 0; i < 200; ++i) {
    sim.fabric->send(text_packet(0, 2, std::to_string(i)));
  }
  sim.engine.run();
  const auto& got = sim.received[{0, 2}];
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
  }
  EXPECT_GT(sim.stack.reliable->counters().out_of_order_buffered, 0u);
}

TEST(ReliableSimTest, ReplayWithSameSeedIsBitIdentical) {
  auto run_once = [] {
    LossySim sim(hostile_wan(99));
    for (int i = 0; i < 300; ++i) {
      sim.fabric->send(text_packet(0, 2, "payload-" + std::to_string(i)));
      sim.fabric->send(text_packet(3, 1, "reverse-" + std::to_string(i)));
    }
    sim.engine.run();
    return std::make_pair(sim.metrics.snapshot(), sim.engine.now());
  };
  auto [snap_a, end_a] = run_once();
  auto [snap_b, end_b] = run_once();
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(snap_a.counter("net.reliable.retransmits"), 0u);
}

TEST(ReliableSimTest, AckRttIsMeasured) {
  FaultConfig cfg;  // clean wire: every sample unambiguous
  cfg.drop = 0.0;
  LossySim sim(cfg, /*rto=*/sim::milliseconds(10));
  for (int i = 0; i < 50; ++i) sim.fabric->send(text_packet(0, 2, "ping"));
  sim.engine.run();
  ASSERT_GT(sim.stack.reliable->ack_rtt_ns().count(), 0u);
  // RTT = two fabric traversals at 100us each.
  EXPECT_NEAR(sim.stack.reliable->ack_rtt_ns().mean(),
              static_cast<double>(sim::microseconds(200)),
              static_cast<double>(sim::microseconds(10)));
}

// -- selective repeat: per-frame deadlines, SACK, fast retransmit ------------
// LossySim's wire is 100 us each way (RTT 200 us). A flow starts with a
// 500 us RTO; once acks have sampled the round trip, its frames start
// with SRTT + max(1 ms, 4 RTTVAR), 1.2 ms on this wire.
// Nodes 0 and 1 sit in cluster 0, nodes 2 and 3 in cluster 1.

/// The RTO a flow's new frames start with, from its estimate.
sim::TimeNs estimated_rto(const net::ReliableDevice::RttEstimate& rtt) {
  return rtt.srtt + std::max(sim::milliseconds(1.0), 4 * rtt.rttvar);
}

/// A wire that loses exactly the frames sent on the directed cluster
/// pair (src, dst) during [start, end) and nothing else.
FaultConfig lose_during(net::ClusterId src, net::ClusterId dst,
                        sim::TimeNs start, sim::TimeNs end) {
  FaultConfig cfg;
  cfg.partitions.push_back({src, dst, start, end});
  return cfg;
}

std::vector<std::string> numbered(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(std::to_string(i));
  return out;
}

TEST(ReliableSimTest, FastRetransmitRepairsOneLossBeforeItsTimeout) {
  // Frame 0 of a five-frame WAN burst is lost. The third frame SACKed
  // behind it resends it at ~200 us, well before its 500 us deadline.
  LossySim sim(lose_during(0, 1, 0, 1));
  for (int i = 0; i < 5; ++i) sim.send_at(i, 0, 2, std::to_string(i));
  sim.engine.run();

  const auto& c = sim.stack.reliable->counters();
  EXPECT_EQ(sim.stack.faults->counters().partition_dropped, 1u);
  EXPECT_EQ(c.retransmits, 1u);
  EXPECT_EQ(c.fast_retransmits, 1u);
  EXPECT_EQ(c.duplicates_suppressed, 0u);
  EXPECT_EQ((sim.received[{0, 2}]), numbered(5));
  EXPECT_LT(sim.last_delivery, sim::microseconds(500));
}

TEST(ReliableSimTest, AdjacentSwapsAreNotLosses) {
  // Every frame, acks included, is jittered by up to 150 us on a 100 us
  // send spacing, so a frame can only ever be overtaken by its direct
  // successor: one frame SACKed past a hole, below the duplicate
  // threshold, and the 5 ms RTO never expires.
  FaultConfig cfg;
  cfg.reorder = 1.0;
  cfg.reorder_jitter = sim::microseconds(150);
  cfg.seed = 5;
  LossySim sim(cfg, /*rto=*/sim::milliseconds(5));
  for (int i = 0; i < 100; ++i) {
    sim.send_at(sim::microseconds(100) * i, 0, 2, std::to_string(i));
  }
  sim.engine.run();

  const auto& c = sim.stack.reliable->counters();
  EXPECT_EQ((sim.received[{0, 2}]), numbered(100));
  EXPECT_GT(c.out_of_order_buffered, 0u) << "no swap happened";
  EXPECT_EQ(c.retransmits, 0u);
  EXPECT_EQ(c.duplicates_suppressed, 0u);
}

TEST(ReliableSimTest, OneTimeoutBacksOffOnlyTheLostFrame) {
  // SAN flow 0 -> 1. Frame 0 is lost; frames 1 and 2 follow at once
  // (two SACKs, short of a fast retransmit) and 21 more leave just
  // before frame 0's deadline, so 24 frames are unacked when it expires
  // at 500 us. Only frame 0 may back off: a flow-wide backoff per
  // overdue frame would stretch every neighbour toward rto_max and,
  // under a give-up budget, abandon a healthy flow. Every other frame
  // keeps the RTO it was sent with: 500 us for frames 1 and 2, sent
  // before any sample, and the estimate's 1.2 ms for frames 3 on, sent
  // after the acks of frames 1 and 2 sampled the 200 us round trip.
  const sim::TimeNs rto = sim::microseconds(500);
  const sim::TimeNs estimate = sim::microseconds(1200);
  const sim::TimeNs late = sim::microseconds(450);
  LossySim sim(lose_during(0, 0, 0, 1), rto);
  for (int i = 0; i < 3; ++i) sim.send_at(i, 0, 1, std::to_string(i));
  for (int i = 3; i < 24; ++i) sim.send_at(late + i, 0, 1, std::to_string(i));
  std::vector<net::ReliableDevice::FrameTimer> at_expiry;
  sim.engine.schedule_at(rto + 1, [&] {
    at_expiry = sim.stack.reliable->flow_frames(0, 1);
  });
  sim.engine.run();

  ASSERT_EQ(at_expiry.size(), 24u);
  EXPECT_EQ(at_expiry[0].rto, 2 * rto);
  EXPECT_EQ(at_expiry[0].deadline, rto + 2 * rto);
  EXPECT_TRUE(at_expiry[1].sacked);
  EXPECT_TRUE(at_expiry[2].sacked);
  EXPECT_EQ(at_expiry[1].rto, rto);
  EXPECT_EQ(at_expiry[2].rto, rto);
  for (std::size_t i = 3; i < at_expiry.size(); ++i) {
    EXPECT_EQ(at_expiry[i].rto, estimate) << "frame " << i;
    EXPECT_EQ(at_expiry[i].deadline,
              late + static_cast<sim::TimeNs>(i) + estimate)
        << "frame " << i;
  }
  const auto& c = sim.stack.reliable->counters();
  EXPECT_EQ(c.retransmits, 1u);
  EXPECT_EQ(c.fast_retransmits, 0u);
  EXPECT_EQ(c.flows_abandoned, 0u);
  EXPECT_EQ(c.duplicates_suppressed, 0u);
  EXPECT_EQ((sim.received[{0, 1}]), numbered(24));
}

TEST(ReliableSimTest, EachFlowTimesOutOnItsOwnRoundTrip) {
  // One device sends on a SAN flow (0 -> 1, 200 us round trip) and a WAN
  // flow (0 -> 2, 10.2 ms through a 5 ms delay device). Once a few acks
  // have come back on each, a new frame starts with its own flow's
  // SRTT + max(1 ms, 4 RTTVAR): about 1.2 ms on the SAN, about 19 ms on
  // the WAN. One RTO for both would either resend every WAN frame or
  // leave a SAN loss unrepaired for a WAN round trip.
  // A 20 ms first RTO, so no frame is resent before its flow's first
  // sample.
  LossySim sim(FaultConfig{}, sim::milliseconds(20.0), nullptr,
               /*wan_delay=*/sim::milliseconds(5.0));
  for (int i = 0; i < 4; ++i) {
    sim.send_at(i, 0, 1, "san-" + std::to_string(i));
    sim.send_at(i, 0, 2, "wan-" + std::to_string(i));
  }
  const sim::TimeNs later = sim::milliseconds(50.0);
  sim.send_at(later, 0, 1, "san-4");
  sim.send_at(later, 0, 2, "wan-4");
  std::vector<net::ReliableDevice::FrameTimer> san;
  std::vector<net::ReliableDevice::FrameTimer> wan;
  std::optional<net::ReliableDevice::RttEstimate> san_rtt;
  std::optional<net::ReliableDevice::RttEstimate> wan_rtt;
  sim.engine.schedule_at(later, [&] {
    san = sim.stack.reliable->flow_frames(0, 1);
    wan = sim.stack.reliable->flow_frames(0, 2);
    san_rtt = sim.stack.reliable->flow_rtt(0, 1);
    wan_rtt = sim.stack.reliable->flow_rtt(0, 2);
  });
  sim.engine.run();

  ASSERT_TRUE(san_rtt.has_value());
  ASSERT_TRUE(wan_rtt.has_value());
  EXPECT_EQ(san_rtt->srtt, sim::microseconds(200));
  EXPECT_EQ(wan_rtt->srtt, sim::microseconds(10200));
  ASSERT_EQ(san.size(), 1u);
  ASSERT_EQ(wan.size(), 1u);
  EXPECT_EQ(san[0].rto, estimated_rto(*san_rtt));
  EXPECT_EQ(wan[0].rto, estimated_rto(*wan_rtt));
  EXPECT_EQ(san[0].rto, sim::microseconds(1200));
  EXPECT_GT(wan[0].rto, sim::milliseconds(15.0));
  EXPECT_LT(wan[0].rto, sim::milliseconds(20.0));
  EXPECT_EQ(sim.stack.reliable->counters().retransmits, 0u);
  EXPECT_EQ((sim.received[{0, 1}].size()), 5u);
  EXPECT_EQ((sim.received[{0, 2}].size()), 5u);
}

TEST(ReliableSimTest, AckOfTheFirstCopyOfAResentFrameSamplesThatCopy) {
  // A 150 us RTO under the 200 us round trip: frame 0 is resent at
  // 150 us, and the ack of its first copy arrives at 200 us echoing
  // copy 0. That proves the resend spurious and samples copy 0's own
  // round trip. Copy 1 reaches the receiver as a duplicate; its ack
  // names a frame already acked and samples nothing.
  LossySim sim(FaultConfig{}, /*rto=*/sim::microseconds(150));
  sim.send_at(0, 0, 2, "0");
  sim.engine.run();

  const auto& c = sim.stack.reliable->counters();
  EXPECT_EQ(c.retransmits, 1u);
  EXPECT_EQ(c.spurious_retransmits, 1u);
  EXPECT_EQ(c.duplicates_suppressed, 1u);
  const RunningStats& rtt = sim.stack.reliable->ack_rtt_ns();
  EXPECT_EQ(rtt.count(), 1u);
  EXPECT_EQ(rtt.max(), static_cast<double>(sim::microseconds(200)));
  const auto est = sim.stack.reliable->flow_rtt(0, 2);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->srtt, sim::microseconds(200));
  EXPECT_EQ(sim.stack.reliable->wan_ack_rtt_ns().count(), 1u);
  EXPECT_EQ((sim.received[{0, 2}]), numbered(1));
}

TEST(ReliableSimTest, SpuriousResendsStopSoonAfterTheRttStepsUp) {
  // Loss-free SAN flow 0 -> 1, one frame every 50 us. At 5 ms the wire
  // slows from 100 us to 1 ms each way: the round trip steps up 10x,
  // from 200 us to 2 ms. Frames sent before the first slow ack returns
  // (1 ms after the step) carry the old 1.2 ms RTO and are resent. The
  // acks then raise the estimate: a handful of acks later, new frames
  // start with an RTO above 2 ms and nothing more is resent.
  const sim::TimeNs gap = sim::microseconds(50);
  const sim::TimeNs step = sim::milliseconds(5.0);
  const sim::TimeNs slow_rtt = sim::milliseconds(2.0);
  LossySim sim(FaultConfig{}, sim::microseconds(500),
               std::make_unique<SteppedLatencyModel>(
                   sim::microseconds(100), step, slow_rtt / 2));
  struct Sent {
    sim::TimeNs at = 0;
    sim::TimeNs rto = 0;
    std::uint64_t acks = 0;  ///< acks received before this frame left
  };
  std::vector<Sent> sent;
  const int frames = 400;  // 20 ms
  for (int i = 0; i < frames; ++i) {
    const sim::TimeNs at = gap * i;
    sim.engine.schedule_at(at, [&sim, &sent, at, i] {
      const std::uint64_t acks =
          sim.stack.reliable->counters().acks_received;
      sim.fabric->send(text_packet(0, 1, std::to_string(i)));
      sent.push_back({at, sim.stack.reliable->flow_frames(0, 1).back().rto,
                      acks});
    });
  }
  sim.engine.run();

  const auto& c = sim.stack.reliable->counters();
  ASSERT_EQ(sent.size(), static_cast<std::size_t>(frames));
  EXPECT_EQ((sim.received[{0, 1}]), numbered(frames));
  // Half a millisecond after the step every fast ack is in, and no ack
  // that left the receiver after the step is.
  const auto first_after_step = static_cast<std::size_t>(step / gap);
  const std::uint64_t fast_acks = sent[first_after_step + 10].acks;
  // The first frame whose RTO covers the new round trip.
  std::size_t adapted = first_after_step;
  while (adapted < sent.size() && sent[adapted].rto <= slow_rtt) ++adapted;
  ASSERT_LT(adapted, sent.size());
  EXPECT_LE(sent[adapted].acks - fast_acks, 5u)
      << "slow acks before the RTO covered the new round trip";
  for (std::size_t i = adapted; i < sent.size(); ++i) {
    EXPECT_GT(sent[i].rto, slow_rtt) << "frame " << i;
  }
  // Only frames sent between the step and the adaptation were resent,
  // each once, and the echo proved every resend spurious.
  EXPECT_GT(c.retransmits, 0u);
  EXPECT_LE(c.retransmits, adapted - first_after_step);
  EXPECT_EQ(c.spurious_retransmits, c.retransmits);
  EXPECT_EQ(c.duplicates_suppressed, c.retransmits);
}

TEST(ReliableSimTest, LateAckOfAResentFrameIsNoEvidenceOfLoss) {
  // The acks of frames 0-2 are lost, so all three time out at 500 us and
  // are resent, after frames 3-8 (sent at 400 us) are already in flight.
  // The receiver had 0-2 all along; the ack of frame 3 covers 0-3 at
  // 600 us. That ack may be for 0-2's first copies, so it proves nothing
  // about 4-8, which arrive right behind it: no fast retransmit.
  const sim::TimeNs burst = sim::microseconds(400);
  LossySim sim(lose_during(1, 0, 0, sim::microseconds(450)));
  for (int i = 0; i < 3; ++i) sim.send_at(i, 0, 2, std::to_string(i));
  for (int i = 3; i < 9; ++i) sim.send_at(burst + i, 0, 2, std::to_string(i));
  sim.engine.run();

  const auto& c = sim.stack.reliable->counters();
  EXPECT_EQ(c.retransmits, 3u);
  EXPECT_EQ(c.fast_retransmits, 0u);
  EXPECT_EQ(c.duplicates_suppressed, 3u);
  EXPECT_EQ((sim.received[{0, 2}]), numbered(9));
}

/// Fabric stand-in for a lone device pair: what a device injects
/// downward (its acks) is kept; nothing is delivered or timed.
struct CaptureHost final : net::DeviceHost {
  std::vector<Packet> sent;
  sim::TimeNs host_now() const override { return 0; }
  void host_schedule(sim::TimeNs, std::function<void()>) override {}
  void inject_send(const net::FilterDevice*, Packet&& p) override {
    sent.push_back(std::move(p));
  }
  void inject_receive(const net::FilterDevice*, Packet&&) override {}
};

TEST(ReliableDeviceTest, AckWithMalformedSackChangesNoFlowState) {
  CaptureHost host;
  net::ReliableDevice sender, receiver;
  sender.bind_host(&host);
  receiver.bind_host(&host);
  std::vector<Packet> batch;
  batch.push_back(text_packet(0, 2, "data"));
  SendContext ctx;
  sender.send_transform(batch, ctx);
  ASSERT_EQ(batch.size(), 1u);
  receiver.receive_transform(std::move(batch[0]));
  ASSERT_EQ(host.sent.size(), 1u);
  // The receiver's genuine ack for frame 0: the 8-byte header, then a
  // 12-byte body of the 8-byte SACK map and the 4-byte echoed seq.
  const Packet ack = host.sent[0];
  const std::size_t header = 8;
  ASSERT_EQ(ack.payload.size(), header + 12);

  // 8 bytes is a SACK map with no echo; 9-11 truncate the echo.
  const std::vector<std::size_t> bad_bodies{1, 4, 7, 8, 9, 10, 11, 13, 16};
  for (std::size_t body : bad_bodies) {
    Packet bad = ack;
    bad.payload.resize(header + body);
    EXPECT_FALSE(sender.receive_transform(std::move(bad)).has_value());
  }
  EXPECT_EQ(sender.counters().malformed_dropped, bad_bodies.size());
  EXPECT_EQ(sender.counters().acks_received, 0u);
  EXPECT_EQ(sender.ack_rtt_ns().count(), 0u);
  EXPECT_FALSE(sender.flow_rtt(0, 2).has_value());
  const auto frames = sender.flow_frames(0, 2);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(frames[0].sacked);
  EXPECT_EQ(frames[0].rto, ReliableConfig{}.rto_initial);

  // No body at all is a pure cumulative ack, and valid; it echoes
  // nothing, so it takes no RTT sample.
  Packet cumulative_only = ack;
  cumulative_only.payload.resize(header);
  sender.receive_transform(std::move(cumulative_only));
  EXPECT_EQ(sender.counters().acks_received, 1u);
  EXPECT_EQ(sender.counters().malformed_dropped, bad_bodies.size());
  EXPECT_EQ(sender.ack_rtt_ns().count(), 0u);
  EXPECT_EQ(sender.unacked_frames(), 0u);
}

TEST(ReliableSimTest, FramesHeldBehindAHoleSampleRttWhenSacked) {
  // Frame 0 is lost. The five frames behind it each sample one clean
  // 200 us round trip when first SACKed, not the ~400 us until the
  // cumulative point passes them. The fast retransmit of frame 0 samples
  // too: its ack echoes the resent copy, so the sample is that copy's
  // own 200 us round trip.
  LossySim sim(lose_during(0, 1, 0, 1));
  for (int i = 0; i < 6; ++i) sim.send_at(i, 0, 2, std::to_string(i));
  sim.engine.run();

  const RunningStats& rtt = sim.stack.reliable->ack_rtt_ns();
  EXPECT_EQ(sim.stack.reliable->counters().retransmits, 1u);
  EXPECT_EQ(rtt.count(), 6u);
  EXPECT_NEAR(rtt.max(), static_cast<double>(sim::microseconds(200)),
              static_cast<double>(sim::microseconds(10)));
  EXPECT_EQ((sim.received[{0, 2}]), numbered(6));
}

// -- reliability over a faulty ThreadFabric -----------------------------------

TEST(ReliableThreadTest, LossyWireDeliversEverythingInOrder) {
  Topology topo = Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(100));
  Chain chain;
  ReliableConfig rel;
  rel.rto_initial = sim::milliseconds(2);
  FaultConfig faults;
  faults.drop = 0.1;
  faults.seed = 5;
  auto stack = net::install_reliability_stack(chain, &topo, rel, faults,
                                              /*cross_cluster_delay=*/0);
  ThreadFabric fabric(&topo, &model, std::move(chain));

  std::mutex m;
  std::vector<std::string> got;
  std::atomic<int> delivered{0};
  fabric.set_delivery_handler(1, [&](Packet&& p) {
    std::lock_guard<std::mutex> lock(m);
    got.push_back(body_of(p));
    delivered.fetch_add(1);
  });
  const int count = 50;
  for (int i = 0; i < count; ++i) {
    fabric.send(text_packet(0, 1, std::to_string(i)));
  }
  for (int spin = 0; spin < 5000 && delivered.load() < count; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(delivered.load(), count);
  std::lock_guard<std::mutex> lock(m);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
  }
  EXPECT_GT(stack.faults->counters().dropped, 0u);
  EXPECT_GT(stack.reliable->counters().retransmits, 0u);
}

// -- the full application across a lossy WAN ----------------------------------

std::vector<double> stencil_mesh(const grid::Scenario& scenario) {
  core::Runtime rt(grid::make_machine(scenario));
  apps::stencil::Params p;
  p.mesh = 24;
  p.objects = 4;
  p.real_compute = true;
  apps::stencil::StencilApp app(rt, p);
  app.run_steps(8);
  return app.gather_mesh();
}

TEST(LossyScenarioTest, StencilAtOnePercentLossMatchesLossless) {
  auto lossless =
      stencil_mesh(grid::Scenario::artificial(4, sim::milliseconds(5.0)));
  auto scenario =
      grid::Scenario::artificial(4, sim::milliseconds(5.0))
          .with_loss(/*drop=*/0.01, /*seed=*/11);
  scenario.faults.duplicate = 0.01;
  scenario.faults.reorder = 0.1;
  scenario.faults.reorder_jitter = sim::milliseconds(1.0);
  auto lossy = stencil_mesh(scenario);
  ASSERT_EQ(lossy.size(), lossless.size());
  for (std::size_t i = 0; i < lossy.size(); ++i) {
    ASSERT_DOUBLE_EQ(lossy[i], lossless[i]) << "cell " << i;
  }
}

TEST(LossyScenarioTest, SimMachineReplayHasIdenticalCounters) {
  auto run_once = [] {
    auto scenario =
        grid::Scenario::artificial(4, sim::milliseconds(2.0))
            .with_loss(0.02, /*seed=*/23);
    auto machine = grid::make_machine(scenario);
    auto* raw = static_cast<core::SimMachine*>(machine.get());
    core::Runtime rt(std::move(machine));
    apps::stencil::Params p;
    p.mesh = 64;
    p.objects = 16;
    apps::stencil::StencilApp app(rt, p);
    app.run_steps(5);
    return std::make_pair(raw->metrics().snapshot(), rt.now());
  };
  auto [snap_a, end_a] = run_once();
  auto [snap_b, end_b] = run_once();
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(snap_a.counter("net.fault.dropped"), 0u);
  EXPECT_GT(snap_a.counter("net.reliable.retransmits"), 0u);
}

}  // namespace
