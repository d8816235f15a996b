// Cross-module property tests: randomized serialization roundtrips,
// discrete-maximum-principle on the stencil, latency-model monotonicity,
// spanning-tree invariants over many machine shapes, and balancer
// post-conditions on randomized load vectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <map>
#include <memory>

#include <sys/wait.h>

#include "apps/stencil/stencil.hpp"
#include "core/envelope.hpp"
#include "grid/scenario.hpp"
#include "ldb/balancers.hpp"
#include "net/adaptive.hpp"
#include "net/coalesce.hpp"
#include "net/faults.hpp"
#include "net/latency_model.hpp"
#include "net/reliable.hpp"
#include "net/sim_fabric.hpp"
#include "net/striping.hpp"
#include "util/pup.hpp"
#include "util/rng.hpp"

namespace {

using namespace mdo;

// -- randomized PUP roundtrips -------------------------------------------------

struct FuzzNode {
  std::int32_t tag = 0;
  std::string name;
  std::vector<double> values;
  std::map<std::int32_t, std::string> attrs;
  std::optional<std::vector<std::int64_t>> extra;

  void pup(Pup& p) { p | tag | name | values | attrs | extra; }
  bool operator==(const FuzzNode&) const = default;
};

FuzzNode random_node(SplitMix64& rng) {
  FuzzNode node;
  node.tag = static_cast<std::int32_t>(rng.next_u64());
  node.name.assign(rng.bounded(40), 'x');
  for (auto& c : node.name) c = static_cast<char>('a' + rng.bounded(26));
  node.values.resize(rng.bounded(100));
  for (auto& v : node.values) v = rng.normal();
  std::uint64_t attrs = rng.bounded(8);
  for (std::uint64_t i = 0; i < attrs; ++i)
    node.attrs[static_cast<std::int32_t>(rng.bounded(1000))] =
        std::string(rng.bounded(10), '?');
  if (rng.bounded(2) == 1) {
    node.extra.emplace(rng.bounded(20));
    for (auto& e : *node.extra) e = static_cast<std::int64_t>(rng.next_u64());
  }
  return node;
}

class PupFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PupFuzz, NestedStructuresRoundtrip) {
  SplitMix64 rng(GetParam());
  std::vector<FuzzNode> forest;
  for (int i = 0; i < 20; ++i) forest.push_back(random_node(rng));
  Bytes packed = pack_object(forest);
  EXPECT_EQ(packed.size(), pup_size(forest));
  std::vector<FuzzNode> out;
  unpack_object(packed, out);
  EXPECT_EQ(out, forest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PupFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// -- envelope wire-image fuzz --------------------------------------------------

// Unpacking a damaged envelope image must either round-trip (corruption
// confined to value bytes) or die in an MDO_CHECK / length-guarded
// allocation failure — never read out of bounds or return a silently
// short parse. Each candidate runs in a forked child (death-test
// machinery) whose acceptable outcomes are exit(0) or SIGABRT.

core::Envelope fuzz_reference_envelope() {
  core::Envelope env;
  env.kind = core::MsgKind::kMulticast;
  env.src_pe = 3;
  env.dst_pe = 7;
  env.array = 2;
  env.index = core::Index(4, 5, 6);
  env.entry = 11;
  env.priority = -9;
  env.flags = core::Envelope::kFlagFanout;
  env.seq = 99991;
  env.sent_at = sim::milliseconds(3);
  Bytes payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 7 + 1);
  env.payload = PayloadBuf::adopt(std::move(payload));
  return env;
}

/// exit(0) (clean round-trip) and SIGABRT (MDO_CHECK or a length-check
/// std::terminate) both count as contained; anything else — SIGSEGV,
/// nonzero exit — is a containment failure.
bool exited_cleanly_or_aborted(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status) == 0;
  if (WIFSIGNALED(status)) return WTERMSIG(status) == SIGABRT;
  return false;
}

void unpack_and_exit(const Bytes& wire) {
  core::Envelope out;
  unpack_object(wire, out);  // may MDO_CHECK-abort; must never overrun
  // Whatever decoded must re-encode without tripping invariants.
  Bytes again = pack_object(out);
  MDO_CHECK(!again.empty());
  std::exit(0);
}

TEST(EnvelopeWireFuzzDeathTest, EveryTruncatedPrefixIsContained) {
  const Bytes wire = pack_object(fuzz_reference_envelope());
  ASSERT_GT(wire.size(), core::Envelope::kHeaderBytes);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EXIT(unpack_and_exit(prefix), exited_cleanly_or_aborted, "")
        << "prefix length " << len << " of " << wire.size();
  }
  // The full image must take the exit(0) branch, not the abort branch.
  EXPECT_EXIT(unpack_and_exit(wire), ::testing::ExitedWithCode(0), "");
}

TEST(EnvelopeWireFuzzDeathTest, SingleBitFlipsAreContained) {
  const Bytes wire = pack_object(fuzz_reference_envelope());
  // One flip per byte position, rotating through the bits, covers every
  // field (length prefixes included) without forking 8x per byte.
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    Bytes mutated = wire;
    mutated[pos] ^= static_cast<std::byte>(1u << (pos % 8));
    EXPECT_EXIT(unpack_and_exit(mutated), exited_cleanly_or_aborted, "")
        << "bit " << (pos % 8) << " of byte " << pos;
  }
}

// -- stencil discrete maximum principle ----------------------------------------

TEST(StencilProperty, MaximumPrincipleHolds) {
  // Jacobi averaging can never create values outside the initial range.
  core::Runtime rt(grid::make_machine(grid::Scenario::artificial(
      4, sim::milliseconds(1.0))));
  apps::stencil::Params p;
  p.mesh = 40;
  p.objects = 16;
  p.real_compute = true;
  apps::stencil::StencilApp app(rt, p);

  double lo = 1e300, hi = -1e300;
  for (int y = 0; y < p.mesh; ++y)
    for (int x = 0; x < p.mesh; ++x) {
      double v = apps::stencil::initial_value(x, y);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  app.run_steps(25);
  for (double v : app.gather_mesh()) {
    EXPECT_GE(v, lo - 1e-12);
    EXPECT_LE(v, hi + 1e-12);
  }
}

TEST(StencilProperty, FixedBoundaryStaysFixed) {
  core::Runtime rt(grid::make_machine(grid::Scenario::local(2)));
  apps::stencil::Params p;
  p.mesh = 24;
  p.objects = 4;
  p.real_compute = true;
  apps::stencil::StencilApp app(rt, p);
  app.run_steps(9);
  auto mesh = app.gather_mesh();
  const int n = p.mesh;
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mesh[static_cast<std::size_t>(i)],
                     apps::stencil::initial_value(i, 0));
    EXPECT_DOUBLE_EQ(mesh[static_cast<std::size_t>((n - 1) * n + i)],
                     apps::stencil::initial_value(i, n - 1));
    EXPECT_DOUBLE_EQ(mesh[static_cast<std::size_t>(i) * n],
                     apps::stencil::initial_value(0, i));
    EXPECT_DOUBLE_EQ(mesh[static_cast<std::size_t>(i) * n + n - 1],
                     apps::stencil::initial_value(n - 1, i));
  }
}

// -- latency model monotonicity --------------------------------------------------

TEST(LatencyProperty, DelayMonotoneInPayload) {
  net::Topology topo = net::Topology::two_cluster(4);
  net::GridLatencyModel::Config cfg;
  cfg.inter = {sim::milliseconds(1.8), 35.0};
  net::GridLatencyModel model(&topo, cfg);
  sim::TimeNs prev = 0;
  for (std::size_t bytes : {0u, 10u, 100u, 1000u, 10000u, 100000u}) {
    sim::TimeNs d = model.delivery_delay(0, 2, bytes, 0);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(LatencyProperty, ContentionNeverReducesDelay) {
  net::Topology topo = net::Topology::two_cluster(4);
  net::GridLatencyModel::Config with, without;
  with.inter = without.inter = {sim::milliseconds(1.8), 35.0};
  with.wan_contention = true;
  net::GridLatencyModel contended(&topo, with);
  net::GridLatencyModel free_model(&topo, without);
  SplitMix64 rng(7);
  sim::TimeNs now = 0;
  for (int i = 0; i < 200; ++i) {
    now += static_cast<sim::TimeNs>(rng.bounded(200000));
    std::size_t bytes = rng.bounded(20000);
    EXPECT_GE(contended.delivery_delay(0, 2, bytes, now),
              free_model.delivery_delay(0, 2, bytes, now));
  }
}

// -- spanning-tree invariants over many shapes -----------------------------------

class TreeShapes : public ::testing::TestWithParam<int> {};

TEST_P(TreeShapes, SingleClusterTreesCoverOddSizes) {
  auto n = static_cast<std::size_t>(GetParam());
  net::Topology topo = net::Topology::single_cluster(n);
  core::ClusterTree tree(topo);
  EXPECT_EQ(tree.subtree_size(tree.root()), n);
  std::size_t counted = 0;
  for (core::Pe pe = 0; pe < static_cast<core::Pe>(n); ++pe) {
    ++counted;
    core::Pe parent = tree.parent(pe);
    if (pe == tree.root()) {
      EXPECT_EQ(parent, core::kInvalidPe);
    } else {
      ASSERT_NE(parent, core::kInvalidPe);
      auto kids = tree.children(parent);
      EXPECT_NE(std::find(kids.begin(), kids.end(), pe), kids.end());
    }
  }
  EXPECT_EQ(counted, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeShapes,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 13, 31, 33, 100));

// -- balancer post-conditions on synthetic snapshots -------------------------------

ldb::LbSnapshot synthetic_snapshot(const net::Topology& topo, int objects,
                                   std::uint64_t seed) {
  ldb::LbSnapshot snap;
  snap.num_pes = static_cast<int>(topo.num_nodes());
  snap.topo = &topo;
  snap.pe_load.assign(topo.num_nodes(), 0);
  SplitMix64 rng(seed);
  for (int i = 0; i < objects; ++i) {
    ldb::ObjectRecord obj;
    obj.array = 0;
    obj.index = core::Index(i);
    obj.pe = static_cast<core::Pe>(rng.bounded(topo.num_nodes()));
    obj.load_ns = static_cast<sim::TimeNs>(rng.bounded(5'000'000) + 1);
    obj.wan_msgs = rng.bounded(3) == 0 ? 5 : 0;
    snap.pe_load[static_cast<std::size_t>(obj.pe)] += obj.load_ns;
    snap.objects.push_back(obj);
  }
  return snap;
}

std::vector<sim::TimeNs> loads_after(const ldb::LbSnapshot& snap,
                                     const std::vector<ldb::Move>& plan) {
  std::map<std::pair<core::ArrayId, core::Index>, core::Pe> place;
  for (const auto& o : snap.objects) place[{o.array, o.index}] = o.pe;
  for (const auto& m : plan) place[{m.array, m.index}] = m.to;
  std::vector<sim::TimeNs> loads(static_cast<std::size_t>(snap.num_pes), 0);
  for (const auto& o : snap.objects)
    loads[static_cast<std::size_t>(place[{o.array, o.index}])] += o.load_ns;
  return loads;
}

class BalancerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BalancerSweep, GreedyNeverWorseThanInput) {
  net::Topology topo = net::Topology::two_cluster(8);
  auto snap = synthetic_snapshot(topo, 64, GetParam());
  ldb::GreedyLb lb;
  auto loads = loads_after(snap, lb.plan(snap));
  EXPECT_LE(*std::max_element(loads.begin(), loads.end()),
            static_cast<sim::TimeNs>(snap.max_load()));
}

TEST_P(BalancerSweep, GreedyWithinTwiceOptimal) {
  // Classic LPT-style bound: max load <= avg + largest object.
  net::Topology topo = net::Topology::two_cluster(8);
  auto snap = synthetic_snapshot(topo, 64, GetParam());
  ldb::GreedyLb lb;
  auto loads = loads_after(snap, lb.plan(snap));
  sim::TimeNs largest = 0;
  for (const auto& o : snap.objects) largest = std::max(largest, o.load_ns);
  EXPECT_LE(static_cast<double>(*std::max_element(loads.begin(), loads.end())),
            snap.avg_load() + static_cast<double>(largest) + 1.0);
}

TEST_P(BalancerSweep, GridCommNeverCrossesAndCoversAllWanObjects) {
  net::Topology topo = net::Topology::two_cluster(8);
  auto snap = synthetic_snapshot(topo, 64, GetParam());
  ldb::GridCommLb lb;
  auto plan = lb.plan(snap);
  std::map<std::pair<core::ArrayId, core::Index>, core::Pe> moved;
  for (const auto& m : plan) moved[{m.array, m.index}] = m.to;
  // Per-cluster WAN-talker counts must be spread within +/-1.
  std::map<net::ClusterId, std::map<core::Pe, int>> talkers;
  for (const auto& o : snap.objects) {
    core::Pe final_pe = moved.count({o.array, o.index})
                            ? moved[{o.array, o.index}]
                            : o.pe;
    EXPECT_TRUE(topo.same_cluster(static_cast<net::NodeId>(o.pe),
                                  static_cast<net::NodeId>(final_pe)));
    if (o.wan_msgs > 0) {
      talkers[topo.cluster_of(static_cast<net::NodeId>(final_pe))][final_pe]++;
    }
  }
  for (auto& [cluster, per_pe] : talkers) {
    int lo = 1 << 30, hi = 0;
    for (net::NodeId node : topo.nodes_in(cluster)) {
      int c = per_pe.count(static_cast<core::Pe>(node))
                  ? per_pe[static_cast<core::Pe>(node)]
                  : 0;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    EXPECT_LE(hi - lo, 1) << "cluster " << cluster;
  }
}

TEST_P(BalancerSweep, RotateMovesEverything) {
  net::Topology topo = net::Topology::two_cluster(4);
  auto snap = synthetic_snapshot(topo, 32, GetParam());
  ldb::RotateLb lb;
  auto plan = lb.plan(snap);
  EXPECT_EQ(plan.size(), snap.objects.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].to, (snap.objects[i].pe + 1) % snap.num_pes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalancerSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// -- exactly-once delivery through random device stacks over a lossy wire ----------

// Any stack of payload-transforming devices above the reliability layer
// must deliver every payload exactly once, in per-flow order, bit-exact,
// no matter how the wire drops, duplicates, reorders, or corrupts frames
// — or goes dark entirely for a while: each seed also draws a few
// directed partition windows (100% loss between a cluster pair) that
// heal before the give-up budget, so the retransmission machinery must
// carry every flow across the outage without loss or duplication.
class LossyStackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyStackFuzz, RandomStacksDeliverExactlyOnceInOrder) {
  SplitMix64 rng(GetParam());
  net::Topology topo = net::Topology::two_cluster(4);

  // A random subset of {compress, crypto, stripe, coalesce}, in random
  // order, above the canonical reliable -> checksum(drop) -> fault tail.
  // Coalescing may land at any position: above crypto it bundles
  // plaintext and the bundle frame is encrypted whole; below it, the
  // per-packet ciphertexts ride inside a bundle and decrypt per
  // sub-packet off the preserved packet ids.
  net::Chain chain;
  net::CoalesceDevice* coalesce = nullptr;
  std::vector<int> upper{0, 1, 2, 3};
  std::shuffle(upper.begin(), upper.end(), rng);
  std::size_t keep = 1 + rng.bounded(4);
  for (std::size_t i = 0; i < keep; ++i) {
    switch (upper[i]) {
      case 0:
        chain.add(std::make_unique<net::CompressionDevice>());
        break;
      case 1:
        chain.add(std::make_unique<net::CryptoDevice>(rng.next_u64()));
        break;
      case 2:
        chain.add(std::make_unique<net::StripingDevice>(
            2 + static_cast<int>(rng.bounded(3)), 64));
        break;
      default: {
        net::CoalesceConfig cc;
        cc.enabled = true;
        cc.max_bundle_packets = 8;
        cc.flush_timeout = sim::microseconds(300);
        coalesce = chain.add(
            std::make_unique<net::CoalesceDevice>(nullptr, cc));
        break;
      }
    }
  }
  net::ReliableConfig rel;
  rel.rto_initial = sim::microseconds(400);
  // Partitions stall flows outright; size the budget so even the longest
  // outage plus capped backoff cannot trip an abandon.
  rel.give_up_budget = sim::seconds(600.0);
  net::FaultConfig faults;
  faults.drop = 0.03;
  faults.duplicate = 0.03;
  faults.corrupt = 0.02;
  faults.reorder = 0.3;
  faults.reorder_jitter = sim::microseconds(300);
  faults.seed = rng.next_u64();
  // One to three directed partition windows. All sends happen at t=0 and
  // random loss is recovered within a few ms, so windows open inside the
  // first retransmission storm (<= 1 ms) to be sure they swallow frames;
  // drops inside a window then sustain traffic until it heals.
  std::size_t windows = 1 + rng.bounded(3);
  for (std::size_t w = 0; w < windows; ++w) {
    net::PartitionWindow win;
    win.src = static_cast<net::ClusterId>(rng.bounded(2));
    win.dst = 1 - win.src;
    win.start = static_cast<sim::TimeNs>(rng.bounded(
        static_cast<std::uint64_t>(sim::milliseconds(1.0))));
    win.end = win.start + sim::milliseconds(1.0) +
              static_cast<sim::TimeNs>(rng.bounded(
                  static_cast<std::uint64_t>(sim::milliseconds(30.0))));
    faults.partitions.push_back(win);
  }
  auto stack = net::install_reliability_stack(chain, &topo, rel, faults,
                                              /*cross_cluster_delay=*/0);

  sim::Engine engine;
  net::FixedLatencyModel model(sim::microseconds(100));
  net::SimFabric fabric(&engine, &topo, &model, std::move(chain));

  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<Bytes>> received;
  for (net::NodeId n = 0; n < 4; ++n) {
    fabric.set_delivery_handler(n, [&received, n](net::Packet&& p) {
      received[{p.src, n}].push_back(std::move(p.payload));
    });
  }

  const std::vector<std::pair<net::NodeId, net::NodeId>> flows{
      {0, 2}, {2, 0}, {1, 3}, {3, 1}};
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<Bytes>> sent;
  const int messages = 10000;
  for (int i = 0; i < messages; ++i) {
    auto flow = flows[rng.bounded(flows.size())];
    net::Packet p;
    p.src = flow.first;
    p.dst = flow.second;
    // Mixed entropy: runs (compressible) plus random bytes, random size.
    std::size_t run = rng.bounded(120);
    std::size_t tail = 1 + rng.bounded(80);
    p.payload.assign(run, static_cast<std::byte>(rng.bounded(256)));
    for (std::size_t b = 0; b < tail; ++b) {
      p.payload.push_back(static_cast<std::byte>(rng.bounded(256)));
    }
    sent[flow].push_back(p.payload);
    fabric.send(std::move(p));
  }
  engine.run();

  for (const auto& [flow, payloads] : sent) {
    const auto& got = received[flow];
    ASSERT_EQ(got.size(), payloads.size())
        << "flow " << flow.first << "->" << flow.second << " seed "
        << GetParam();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_EQ(got[i], payloads[i])
          << "payload " << i << " of flow " << flow.first << "->"
          << flow.second << " seed " << GetParam();
    }
  }
  EXPECT_EQ(stack.reliable->unacked_frames(), 0u);
  EXPECT_EQ(stack.reliable->buffered_packets(), 0u);
  EXPECT_GT(stack.reliable->counters().retransmits, 0u);
  EXPECT_GT(stack.faults->counters().partition_dropped, 0u)
      << "seed " << GetParam() << " drew no frames inside its windows";
  EXPECT_EQ(stack.reliable->counters().flows_abandoned, 0u);
  if (coalesce != nullptr) {
    EXPECT_EQ(coalesce->pending_packets(), 0u)
        << "coalesce buffers must drain by end of run, seed " << GetParam();
    EXPECT_EQ(coalesce->counters().malformed_dropped, 0u);
    EXPECT_EQ(coalesce->counters().packets_unbundled,
              coalesce->counters().packets_bundled);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyStackFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u));

// -- adaptive controller under randomized link schedules -----------------------

// The feedback controller must be safe under ANY link behavior, not
// just the engineered drifts of the adaptive tier: random latency
// walks, loss rates, and traffic mixes may confuse its estimators but
// can never push a knob out of bounds, widen the failure-detection
// window (flush window <= half the heartbeat period, globally and per
// pair), or cause a flow to be abandoned. 256 seeds, sharded so ctest
// can spread them across cores.
class AdaptiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaptiveFuzz, RandomLinkSchedulesNeverBreakInvariants) {
  constexpr std::uint64_t kSeedsPerShard = 32;
  for (std::uint64_t n = 0; n < kSeedsPerShard; ++n) {
    const std::uint64_t seed = GetParam() * kSeedsPerShard + n;
    SplitMix64 rng(seed);
    net::Topology topo = net::Topology::two_cluster(4);
    const sim::TimeNs horizon = sim::milliseconds(200.0);

    net::Chain chain;
    net::HeartbeatConfig hb;
    hb.enabled = true;
    hb.period = sim::milliseconds(4.0);
    // Tolerate the worst latency the schedule below can draw (16 ms):
    // detector sizing is not what this fuzz is probing.
    hb.timeout = sim::milliseconds(80.0);
    hb.confirm_window = sim::milliseconds(160.0);
    net::CoalesceConfig cc;
    cc.enabled = true;
    cc.flush_timeout = sim::microseconds(500.0);
    net::CompressionConfig comp;
    comp.enabled = rng.bounded(2) == 1;
    net::StripingConfig stripe;
    stripe.enabled = rng.bounded(2) == 1;
    stripe.rails = 2 + rng.bounded(3);
    stripe.min_bytes = 256;
    net::ReliableConfig rel;
    rel.rto_initial = sim::milliseconds(80.0);
    rel.give_up_budget = sim::seconds(600.0);
    net::FaultConfig faults;
    faults.drop = rng.uniform(0.0, 0.05);
    faults.seed = rng.next_u64();
    auto stack = net::install_reliability_stack(
        chain, &topo, rel, faults, /*cross_cluster_delay=*/
        sim::milliseconds(2.0), hb, cc, comp, stripe);

    sim::Engine engine;
    net::FixedLatencyModel model(sim::microseconds(100));
    net::SimFabric fabric(&engine, &topo, &model, std::move(chain));
    for (net::NodeId node = 0; node < 4; ++node) {
      fabric.set_delivery_handler(node, [](net::Packet&&) {});
    }

    net::AdaptiveConfig acfg;
    acfg.enabled = true;
    acfg.sample_period = sim::milliseconds(1.0);
    // Raise the configured ceiling past the detector's (2 ms), so the
    // detector clamp is what actually has to hold the line.
    acfg.max_flush_window = sim::milliseconds(4.0);
    net::AdaptiveController* ctl = fabric.chain().add(
        std::make_unique<net::AdaptiveController>(&topo, acfg));
    ctl->attach(stack, fabric);

    // Random link schedule: 2-6 retargets of both directions, latencies
    // drawn from [1 ms, 16 ms], times spread over the horizon.
    net::DelayDevice* delay = stack.delay;
    const std::uint64_t drifts = 2 + rng.bounded(5);
    for (std::uint64_t d = 0; d < drifts; ++d) {
      const auto at = static_cast<sim::TimeNs>(
          rng.bounded(static_cast<std::uint64_t>(horizon * 3 / 4)));
      const auto latency = sim::milliseconds(1.0) +
                           static_cast<sim::TimeNs>(rng.bounded(
                               static_cast<std::uint64_t>(
                                   sim::milliseconds(15.0))));
      engine.schedule_at(at, [delay, latency] {
        delay->set_cluster_delay(0, 1, latency);
        delay->set_cluster_delay(1, 0, latency);
      });
    }

    // Cross-cluster traffic in bursts across the horizon, random sizes
    // (some compressible, some not; some past the striping threshold).
    const std::uint64_t bursts = 40 + rng.bounded(40);
    for (std::uint64_t b = 0; b < bursts; ++b) {
      const auto at = static_cast<sim::TimeNs>(
          rng.bounded(static_cast<std::uint64_t>(horizon)));
      const std::size_t count = 1 + rng.bounded(6);
      const std::size_t size = 16 + rng.bounded(2048);
      const bool runs = rng.bounded(2) == 1;
      const auto fill = static_cast<std::byte>(rng.bounded(256));
      engine.schedule_at(at, [&fabric, &rng, count, size, runs, fill] {
        for (std::size_t i = 0; i < count; ++i) {
          net::Packet p;
          p.src = static_cast<net::NodeId>(rng.bounded(2));
          p.dst = static_cast<net::NodeId>(2 + rng.bounded(2));
          p.payload.assign(size, fill);
          if (!runs) {
            for (auto& byte : p.payload) {
              byte = static_cast<std::byte>(rng.bounded(256));
            }
          }
          fabric.send(std::move(p));
        }
      });
    }

    stack.heartbeat->watch(horizon);
    ctl->start(horizon);
    engine.run();

    // Invariants, regardless of what the schedule did to the estimators.
    const sim::TimeNs detector_bound = hb.period / 2;
    EXPECT_GT(ctl->counters().samples, 0u) << "seed " << seed;
    EXPECT_GE(ctl->flush_window(), net::AdaptiveController::kMinFlushWindow)
        << "seed " << seed;
    EXPECT_LE(ctl->flush_window(), acfg.max_flush_window) << "seed " << seed;
    EXPECT_LE(ctl->flush_window(), detector_bound) << "seed " << seed;
    for (net::NodeId src : {0, 1}) {
      for (net::NodeId dst : {2, 3}) {
        EXPECT_LE(stack.coalesce->flush_timeout_for(src, dst), detector_bound)
            << "seed " << seed << " pair " << src << "->" << dst;
        EXPECT_LE(stack.coalesce->flush_timeout_for(dst, src), detector_bound)
            << "seed " << seed << " pair " << dst << "->" << src;
      }
    }
    if (stack.stripe != nullptr) {
      EXPECT_GE(stack.stripe->rails(), net::AdaptiveController::kMinRails)
          << "seed " << seed;
      EXPECT_LE(stack.stripe->rails(), net::AdaptiveController::kMaxRails)
          << "seed " << seed;
    }
    EXPECT_EQ(stack.reliable->counters().flows_abandoned, 0u)
        << "seed " << seed;
    EXPECT_EQ(stack.reliable->unacked_frames(), 0u) << "seed " << seed;
    EXPECT_EQ(stack.coalesce->pending_packets(), 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, AdaptiveFuzz,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u));

// -- determinism of the full simulation stack ---------------------------------------

TEST(Determinism, IdenticalRunsProduceIdenticalVirtualTimes) {
  auto run_once = [] {
    core::Runtime rt(grid::make_machine(grid::Scenario::artificial(
        8, sim::milliseconds(4.0))));
    apps::stencil::Params p;
    p.mesh = 512;
    p.objects = 64;
    apps::stencil::StencilApp app(rt, p);
    app.run_steps(7);
    return rt.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, RealGridJitterIsReproducible) {
  auto run_once = [] {
    core::Runtime rt(grid::make_machine(grid::Scenario::real_grid(8)));
    apps::stencil::Params p;
    p.mesh = 512;
    p.objects = 64;
    apps::stencil::StencilApp app(rt, p);
    app.run_steps(5);
    return rt.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
