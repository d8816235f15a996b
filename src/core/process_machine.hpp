#pragma once
// ProcessMachine: each PE is a real forked OS process; envelopes cross PE
// boundaries over Unix-domain sockets through a per-process
// net::SocketFabric. The parent process is PE 0 and the host: setup code
// (array creation, device installs, scenario wiring) runs pre-fork so
// every child inherits an identically configured runtime by
// copy-on-write; the first run() forks the mesh. kill_pe is a genuine
// SIGKILL, so the heartbeat/FT stack is exercised against real process
// death rather than a flag. Frames carry the envelope wire image every
// backend uses (Machine::pack_delivery): entry ids are fixed at load time
// and boot() freezes the registry before forking, so no registry state
// ever travels.
//
// Coordination runs on a small blocking control plane (one socketpair
// per child, strict request/reply served by a dedicated thread in the
// child): quiescence waves, stats/metrics/trace collection, element
// sync for checkpoints, placement replication after recovery, detector
// arming, and exit. Array-touching control ops (pack/replace/rebuild)
// are only ever issued from host code at quiescent points, when child
// main threads are idle-parked — that protocol discipline is what makes
// the control thread's runtime access safe.
//
// Quiescence is a distributed double wave over monotone per-pair
// counters: sent_to[i][j] at send, acct_from[j][i] after the handler
// (and its sends) finish, undeliv_to[i][j] for squashes toward dead
// peers. The mesh is quiescent when the parent queue is empty, every
// child is idle-parked, every alive pair balances, and two consecutive
// waves are identical (monotone counters make identical balanced waves
// sound).
//
// Limitations vs the shared-address-space backends (documented in
// DESIGN.md): in-place Runtime::migrate/restore_array are rejected
// (migrate_async works), stop()/manual partition toggles act on the
// posting process only, adaptive()->start() after the fork arms only the
// parent's controller (pre-fork arming reaches everyone via the staged
// timer replay), and run() must be driven by the parent.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "core/machine.hpp"
#include "core/wall_clock.hpp"
#include "net/latency_model.hpp"
#include "net/socket_fabric.hpp"

namespace mdo::core {

class ProcessMachine final : public Machine {
 public:
  ProcessMachine(net::Topology topo, net::GridLatencyModel::Config link)
      : ProcessMachine(std::move(topo), link, MachineOptions{}) {}
  ProcessMachine(net::Topology topo, net::GridLatencyModel::Config link,
                 MachineOptions options);
  ~ProcessMachine() override;

  /// Crash-inject: SIGKILL the child hosting `pe` and reap it. The other
  /// processes learn of the death twice, deliberately: immediately via a
  /// control broadcast (routing squash, like the other backends), and
  /// organically via heartbeat silence (what the FT stack reacts to).
  void kill_pe(Pe pe) override;

  // -- Machine interface ---------------------------------------------------
  Pe current_pe() const override { return self_pe_; }
  sim::TimeNs now() const override { return wall_since(epoch_); }
  void send(Envelope&& env) override;
  void run() override;
  void stop() override;
  PeStats pe_stats(Pe pe) const override;
  /// Before the fork, `fn` is staged and replayed into *every* process's
  /// fabric at the fork (scenario link-drift schedules); afterwards it
  /// runs in the posting process only, on its network thread.
  void call_after(sim::TimeNs dt, std::function<void()> fn) override;
  void set_tracing(bool on) override {
    trace_.set_enabled(on, static_cast<std::size_t>(num_pes()), forked_);
  }
  std::vector<TraceEvent> trace() const override;
  void trace_phase(std::int32_t phase) override;
  bool shared_address_space() const override { return false; }
  void sync_remote_elements() override;
  void on_element_replaced(ArrayId array, const Index& index, Pe to,
                           std::span<const std::byte> state) override;
  void on_tree_rebuilt(const std::vector<bool>& alive) override;
  void watch_detector(sim::TimeNs horizon) override;

 protected:
  SchedulerSample scheduler_sample() const override;
  /// Devices are built pre-fork and inherited by every child.
  net::Chain& device_chain() override;
  const net::Fabric* local_fabric() const override { return fabric_.get(); }
  obs::MetricRegistry& device_metrics() override { return local_metrics_; }

 private:
  enum class Role { kParent, kChild };

  struct Delivery {
    Pe from;  ///< transmitting *process* (quiescence accounting key; the
              ///< envelope's src_pe can differ when a message was forwarded)
    Envelope env;
  };

  /// Buffers DeviceHost timers issued before the fork (heartbeat watch,
  /// adaptive start, scenario drift schedules) for replay into every
  /// process's real fabric. Pre-fork there is no traffic, so the
  /// injection paths are unreachable.
  class StagingHost final : public net::DeviceHost {
   public:
    sim::TimeNs host_now() const override { return 0; }
    void host_schedule(sim::TimeNs dt, std::function<void()> fn) override {
      staged_.emplace_back(dt, std::move(fn));
    }
    void inject_send(const net::FilterDevice*, net::Packet&&) override;
    void inject_receive(const net::FilterDevice*, net::Packet&&) override;
    std::vector<std::pair<sim::TimeNs, std::function<void()>>> take() {
      return std::move(staged_);
    }

   private:
    std::vector<std::pair<sim::TimeNs, std::function<void()>>> staged_;
  };

  // Control-plane ops (u32 on the wire).
  enum CtlOp : std::uint32_t {
    kCtlHello = 1,
    kCtlStatus,
    kCtlMetrics,
    kCtlTrace,
    kCtlWatch,
    kCtlPack,
    kCtlReplace,
    kCtlRebuild,
    kCtlPeDead,
    kCtlExit,
  };

  /// One wave row per process: quiescence counters plus liveness/stats.
  struct CtlStatus {
    std::vector<std::uint64_t> sent_to, acct_from, undeliv_to;
    PeStats stats;
    std::uint8_t idle = 0;
    void pup(Pup& p) { p | sent_to | acct_from | undeliv_to | stats | idle; }
  };
  struct CtlBlob {
    ArrayId array = 0;
    Index index;
    Pe to = 0;
    Bytes state;
    void pup(Pup& p) { p | array | index | to | state; }
  };

  void boot();
  void setup_process(std::vector<int> peer_fds);
  [[noreturn]] void child_main();
  void control_loop(int fd);
  void handle_control(std::uint32_t op, Bytes&& payload, int fd);

  void flush_setup();
  void route(Envelope&& env);
  void dispatch(Envelope&& env);  ///< route minus the sent_to count
  void enqueue(Pe from, Envelope&& env);
  bool execute_one();

  CtlStatus local_status();
  /// One wave: fetch every alive child's status (caching it), flatten
  /// all counters into `wave`, and report whether the mesh looks settled
  /// (children idle + every alive pair balanced).
  bool collect_wave(std::vector<std::uint64_t>& wave);
  void reap_children();
  void handle_child_death(Pe pe);
  /// A child is gone: reap it, resolve envelopes parked toward it, and
  /// tell the survivors (they squash sends to it from now on).
  void bury(Pe pe);
  /// Refetch a live child's status row into cached_status_; false when
  /// the child is (now) dead and its row keeps its last-known values.
  bool refresh_status(Pe pe);
  void broadcast(std::uint32_t op, const Bytes& payload);
  /// Parent-side request/reply; nullopt when the child is (now) dead.
  std::optional<Bytes> request(Pe child, std::uint32_t op,
                               const Bytes& payload);

  MachineOptions options_;
  net::GridLatencyModel model_;
  StagingHost staging_;
  net::Chain chain_;  ///< built pre-fork; moved into the fabric at fork
  std::unique_ptr<net::SocketFabric> fabric_;

  /// Device/fabric/scheduler sources register here in every process; the
  /// parent's Machine-level registry carries one aggregator source that
  /// merges this registry with the children's (fetched over control).
  obs::MetricRegistry local_metrics_;

  Role role_ = Role::kParent;
  Pe self_pe_ = 0;
  bool forked_ = false;
  WallTime epoch_;

  std::vector<pid_t> pids_;           // parent: child pids (index = pe)
  std::vector<int> ctl_fds_;          // parent: control sockets (index = pe)
  int child_ctl_fd_ = -1;             // child: its end of the control pair
  std::thread control_thread_;        // child only
  // Parent: serializes control requests. Recursive because discovering a
  // death mid-request (EOF) broadcasts kPeDead to the others in place.
  mutable std::recursive_mutex ctl_mutex_;

  std::atomic<bool> stopping_{false};

  // Buffered sends between construction and the fork: routed (and
  // counted) by the parent right after forking, exactly like SimMachine
  // buffers setup sends until run().
  std::vector<Envelope> setup_queue_;

  // This process's mailbox (the child main thread / parent wave loop
  // executes from it).
  Mailbox<Delivery> mailbox_;

  mutable std::mutex stats_mutex_;
  PeStats stats_;  // this process's PE

  // Quiescence counters (monotone; read by the control thread).
  std::vector<std::atomic<std::uint64_t>> sent_to_, acct_from_, undeliv_to_;

  // Tracing: ring per PE (producer: that PE's process main thread; only
  // ring self_pe_ is live in each process) + host-marker ring at
  // index num_pes (producer: the parent main thread).
  TraceRecorder trace_;

  // Parent-side caches of child state, refreshed on every successful
  // control fetch and served as-is for dead children (a SIGKILLed PE's
  // counters freeze at the last wave before its death).
  std::vector<CtlStatus> cached_status_;
  std::vector<std::map<std::string, obs::MetricValue>> cached_metrics_;

  bool in_sync_ = false;  // applying pulled blobs: suppress re-broadcast
};

}  // namespace mdo::core
