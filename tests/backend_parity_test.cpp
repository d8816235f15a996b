// Backend parity: one Scenario realized through grid::make_machine must
// behave observably the same on all three backends — the virtual-time
// simulator, the thread-per-PE machine, and the process-per-PE machine
// over Unix-domain sockets. Parity here means the *message-layer*
// observables agree (reduction results, WAN wire-frame counts, executed
// message totals, the trace schema, the metric key space, and a clean
// reliable link resending nothing); wall clocks and event interleavings
// are free to differ.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/registry.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mdo;
using core::Index;
using core::Runtime;

constexpr grid::Backend kBackends[] = {
    grid::Backend::kSim, grid::Backend::kThread, grid::Backend::kProcess};

const char* backend_name(grid::Backend b) {
  switch (b) {
    case grid::Backend::kSim: return "sim";
    case grid::Backend::kThread: return "thread";
    case grid::Backend::kProcess: return "process";
  }
  return "?";
}

/// Sum-reduction fixture. Contributions are small integers (exact in
/// binary), so the reduced value is independent of combining order and
/// comparable bitwise across backends.
struct Summer : core::Chare {
  core::ReductionClientId client = -1;
  void go() {
    runtime().contribute(*this, {double(index().x + 1)},
                         core::ReduceOp::kSum, client);
  }
  void pup(Pup& p) override { Chare::pup(p); }
};

struct ParityRun {
  double sum = 0.0;
  std::uint64_t wan_wire_frames = 0;
  std::uint64_t msgs_executed = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t shard_handoffs = 0;   ///< rt.sched.shard.handoffs
  double shards = 0.0;                ///< rt.sched.shard.shards gauge
  std::set<std::string> metric_keys;  ///< rt./mem./trace.-prefixed names
  std::vector<core::TraceEvent> trace;
  int num_pes = 0;
};

/// `rounds` broadcast+reduction round trips over 4 PEs / 2 clusters on
/// the given backend, collecting every parity observable at the end.
ParityRun run_reduction(grid::Backend backend, int rounds) {
  const std::size_t pes = 4;
  grid::Scenario s =
      grid::Scenario::artificial(pes, sim::milliseconds(2.0)).with_tracing();
  core::MachineOptions opts;
  opts.emulate_charge = false;  // wall-clock backends: no modeled sleeps
  Runtime rt(grid::make_machine(s, backend, opts));
  auto proxy = rt.create_array<Summer>(
      "sum", core::indices_1d(pes), core::block_map_1d(pes, pes),
      [](const Index&) { return std::make_unique<Summer>(); });
  double sum = 0.0;
  auto client = proxy.reduction_client(
      [&](const std::vector<double>& d) { sum = d.at(0); });
  for (std::size_t i = 0; i < pes; ++i)
    proxy.local(Index(static_cast<std::int32_t>(i)))->client = client;

  for (int r = 0; r < rounds; ++r) {
    proxy.broadcast<&Summer::go>();
    rt.run();
  }

  ParityRun out;
  out.sum = sum;
  out.num_pes = rt.machine().num_pes();
  out.wan_wire_frames = rt.machine().fabric_stats().wan_wire_frames;
  auto snap = rt.machine().metrics().snapshot();
  out.msgs_executed = snap.counter("rt.sched.msgs_executed");
  out.msgs_sent = snap.counter("rt.sched.msgs_sent");
  out.msgs_dropped = snap.counter("rt.sched.msgs_dropped");
  out.shard_handoffs = snap.counter("rt.sched.shard.handoffs");
  out.shards = snap.gauge("rt.sched.shard.shards");
  for (const auto& [name, value] : snap.values) {
    if (name.rfind("rt.", 0) == 0 || name.rfind("mem.", 0) == 0 ||
        name.rfind("trace.", 0) == 0) {
      out.metric_keys.insert(name);
    }
  }
  out.trace = rt.machine().trace();
  return out;
}

TEST(BackendParity, ReductionValueAgreesEverywhere) {
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    EXPECT_DOUBLE_EQ(r.sum, 1.0 + 2.0 + 3.0 + 4.0) << backend_name(b);
  }
}

TEST(BackendParity, WanWireFramesAndExecutedCountsAgree) {
  // With no loss, no coalescing, and no reliability stack, every
  // cross-cluster envelope is exactly one WAN wire frame on every
  // backend, and the total executed-message count is a property of the
  // application, not the clock driving it.
  ParityRun ref = run_reduction(grid::Backend::kSim, 4);
  ASSERT_GT(ref.wan_wire_frames, 0u);
  ASSERT_GT(ref.msgs_executed, 0u);
  for (grid::Backend b : {grid::Backend::kThread, grid::Backend::kProcess}) {
    ParityRun r = run_reduction(b, 4);
    EXPECT_EQ(r.wan_wire_frames, ref.wan_wire_frames) << backend_name(b);
    EXPECT_EQ(r.msgs_executed, ref.msgs_executed) << backend_name(b);
  }
}

TEST(BackendParity, TraceSchemaAgrees) {
  // Same TraceEvent schema from every backend: events for every PE,
  // monotone [begin, end] intervals, and real entry ids on kEntry
  // events. Absolute times are backend-local (virtual vs wall) and are
  // not compared.
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    ASSERT_FALSE(r.trace.empty()) << backend_name(b);
    std::set<core::Pe> pes_seen;
    for (const auto& ev : r.trace) {
      EXPECT_GE(ev.pe, 0) << backend_name(b);
      EXPECT_LT(ev.pe, r.num_pes) << backend_name(b);
      EXPECT_LE(ev.begin, ev.end) << backend_name(b);
      if (ev.kind == core::MsgKind::kEntry) {
        EXPECT_NE(ev.entry, core::kInvalidEntry) << backend_name(b);
      }
      pes_seen.insert(ev.pe);
    }
    EXPECT_EQ(pes_seen.size(), static_cast<std::size_t>(r.num_pes))
        << backend_name(b) << ": every PE must appear in the trace";
  }
}

TEST(BackendParity, ShardedSchedulerKeepsReductionsAndShardSchemaAligned) {
  // The sharded delivery path (one queue per PE: a mailbox on the
  // wall-clock backends) must be invisible at the message layer: the
  // reduced value stays bitwise identical, and every backend publishes
  // the same rt.sched.shard.* schema — handoffs/handoff_batches counters
  // plus a shards gauge equal to the PE count (the process backend sums
  // one single-shard source per forked PE).
  const std::set<std::string> want = {"rt.sched.shard.handoff_batches",
                                      "rt.sched.shard.handoffs",
                                      "rt.sched.shard.shards"};
  ParityRun ref = run_reduction(grid::Backend::kSim, 3);
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    EXPECT_DOUBLE_EQ(r.sum, ref.sum) << backend_name(b);
    std::set<std::string> shard_keys;
    for (const auto& key : r.metric_keys) {
      if (key.rfind("rt.sched.shard.", 0) == 0) shard_keys.insert(key);
    }
    EXPECT_EQ(shard_keys, want) << backend_name(b);
    EXPECT_GT(r.shard_handoffs, 0u) << backend_name(b);
    EXPECT_DOUBLE_EQ(r.shards, static_cast<double>(r.num_pes))
        << backend_name(b);
  }
}

TEST(BackendParity, SentEqualsExecutedPlusDropped) {
  // The scheduler's accounting invariant, on every backend: each send is
  // counted once, at its source PE, and ends either executed or dropped.
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    EXPECT_GT(r.msgs_sent, 0u) << backend_name(b);
    EXPECT_EQ(r.msgs_sent, r.msgs_executed + r.msgs_dropped)
        << backend_name(b);
  }
}

TEST(BackendParity, LossFreeReliableLinkResendsNothing) {
  // Every frame here is acked one 2 ms round trip after it leaves, inside
  // its 3 ms RTO, so a sender that times each frame from its own
  // transmission resends none. A single per-flow timer that ack progress
  // does not re-arm resent 31, 32 and 20 of 81 data frames on Sim,
  // Thread and Process, every copy suppressed as a duplicate.
  const grid::Scenario s =
      grid::Scenario::artificial(2, sim::milliseconds(1.0)).with_reliability();
  const auto rto = static_cast<double>(s.reliable.rto_initial);
  for (grid::Backend b : kBackends) {
    // On the wall-clock backends a host stall can hold an ack past its
    // frame's RTO, and resending that frame is then correct. Such a run
    // shows as a first ack slower than the RTO and is repeated, at most
    // twice; the slowest first ack stays under the RTO in any run that
    // decides the test.
    for (int attempt = 1;; ++attempt) {
      core::MachineOptions opts;
      opts.emulate_charge = false;
      Runtime rt(grid::make_machine(s, b, opts));
      apps::stencil::Params p;
      p.mesh = 64;
      p.objects = 16;
      apps::stencil::StencilApp app(rt, p);
      app.run_steps(10);
      const auto snap = rt.machine().metrics().snapshot();
      const obs::MetricValue* first_ack =
          snap.find("net.reliable.wan_ack_rtt_ns");
      ASSERT_NE(first_ack, nullptr) << backend_name(b);
      if (first_ack->max > rto && attempt < 3) continue;
      EXPECT_GT(snap.counter("net.reliable.data_sent"), 0u) << backend_name(b);
      EXPECT_EQ(snap.counter("net.reliable.retransmits"), 0u)
          << backend_name(b) << ", slowest first ack " << first_ack->max
          << " ns";
      EXPECT_EQ(snap.counter("net.reliable.duplicates_suppressed"), 0u)
          << backend_name(b);
      break;
    }
  }
}

/// After the machine starts, elements 0 and 1 first use different
/// entries: 0 self-sends a(); 1 self-sends b(), and b() pings 0.
struct FirstUse : core::Chare {
  int a_runs = 0;
  int ping_runs = 0;
  void start() {
    auto self = runtime().proxy<FirstUse>(array_id());
    if (index().x == 0) {
      self.send<&FirstUse::a>(index());
    } else {
      self.send<&FirstUse::b>(index());
    }
  }
  void a() { ++a_runs; }
  void b() {
    runtime().proxy<FirstUse>(array_id()).send<&FirstUse::ping>(Index(0));
  }
  void ping() { ++ping_runs; }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | a_runs | ping_runs;
  }
};

TEST(BackendParity, EntryIdsAgreeWhateverEachPeUsesFirst) {
  // Entry ids are fixed at load time, so which PE (or forked process)
  // uses an entry first cannot change what an id means: PE 1's b() must
  // reach element 0 as ping(), not as PE 0's a(). Process goes first,
  // so a() and b() have not run anywhere in this process before its fork.
  for (grid::Backend b : {grid::Backend::kProcess, grid::Backend::kSim,
                          grid::Backend::kThread}) {
    grid::Scenario s = grid::Scenario::artificial(2, sim::milliseconds(20.0));
    core::MachineOptions opts;
    opts.emulate_charge = false;
    Runtime rt(grid::make_machine(s, b, opts));
    auto proxy = rt.create_array<FirstUse>(
        "first-use", core::indices_1d(2), core::block_map_1d(2, 2),
        [](const Index&) { return std::make_unique<FirstUse>(); });
    // Used on the host first, so only a() and b() are first used in run().
    core::entry_id<&FirstUse::ping>();
    proxy.send<&FirstUse::start>(Index(0));
    proxy.send<&FirstUse::start>(Index(1));
    rt.run();
    const FirstUse* zero = proxy.local(Index(0));
    EXPECT_EQ(zero->a_runs, 1) << backend_name(b);
    EXPECT_EQ(zero->ping_runs, 1) << backend_name(b);
  }
}

TEST(BackendParity, MetricRegistrySourcesPublishTheSameKeys) {
  // The observability contract: rt.sched/rt/mem/trace metric names are
  // identical across backends, so dashboards and the perf gates need no
  // backend-specific key lists. (Process adds fabric.socket.* transport
  // counters on top; the shared prefixes must still match exactly.)
  ParityRun ref = run_reduction(grid::Backend::kSim, 2);
  ASSERT_FALSE(ref.metric_keys.empty());
  for (grid::Backend b : {grid::Backend::kThread, grid::Backend::kProcess}) {
    ParityRun r = run_reduction(b, 2);
    EXPECT_EQ(r.metric_keys, ref.metric_keys) << backend_name(b);
  }
}

}  // namespace
