#include "core/thread_machine.hpp"

#include "core/runtime.hpp"
#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace mdo::core {
namespace {

thread_local Pe t_current_pe = kInvalidPe;

}  // namespace

ThreadMachine::ThreadMachine(net::Topology topo,
                             net::GridLatencyModel::Config link, MachineOptions options)
    : Machine(std::move(topo)),
      options_(options),
      model_(&topo_, link),
      start_(std::chrono::steady_clock::now()) {
  fabric_ = std::make_unique<net::SocketFabric>(&topo_, &model_, net::Chain{});
  fabric_->set_node_up_probe(
      [this](net::NodeId node) { return pe_alive(static_cast<Pe>(node)); });
  workers_.reserve(topo_.num_nodes());
  for (std::size_t pe = 0; pe < topo_.num_nodes(); ++pe) {
    workers_.push_back(std::make_unique<PeWorker>());
    fabric_->set_delivery_handler(
        static_cast<net::NodeId>(pe), [this, pe](net::Packet&& packet) {
          enqueue(static_cast<Pe>(pe), unpack_delivery(packet));
        });
  }
  parking_.set_resend([this](Envelope&& env) { route(std::move(env)); });
  net::register_fabric_metrics(metrics_, *fabric_);
  register_core_metrics(metrics_);
  fabric_->start();
  for (std::size_t pe = 0; pe < workers_.size(); ++pe) {
    workers_[pe]->thread =
        std::thread([this, pe] { worker_loop(static_cast<Pe>(pe)); });
  }
}

ThreadMachine::~ThreadMachine() { stop(); }

Machine::SchedulerSample ThreadMachine::scheduler_sample() const {
  SchedulerSample s;
  for (const auto& worker : workers_) {
    s.pes.msgs_sent += worker->sent.load(std::memory_order_relaxed);
    s.pes.msgs_executed += worker->executed.load(std::memory_order_relaxed);
    s.pes.msgs_dropped += worker->dropped.load(std::memory_order_relaxed);
    s.pes.busy_ns += worker->busy_ns.load(std::memory_order_relaxed);
    s.queue_depth += worker->mailbox.size();
    s.handoffs += worker->mailbox.pushed();
    s.handoff_batches += worker->mailbox.popped();
  }
  s.shards = workers_.size();
  s.trace = trace_.stats();
  return s;
}

void ThreadMachine::trace_phase(std::int32_t phase) {
  // Worker threads own their PE's ring; the host thread owns the extra
  // ring at index num_pes, so every ring keeps a single producer.
  const std::size_t ring =
      t_current_pe == kInvalidPe ? workers_.size()
                                 : static_cast<std::size_t>(t_current_pe);
  trace_.record(ring, phase_marker(current_pe(), now(), phase));
}

void ThreadMachine::kill_pe(Pe pe) {
  // The worker stays alive as a drain pump (see worker_loop): whatever
  // its mailbox holds, or still receives, is popped and dropped, so
  // there is no push-after-drain window.
  mark_killed(pe);
}

Pe ThreadMachine::current_pe() const {
  return t_current_pe == kInvalidPe ? 0 : t_current_pe;
}

void ThreadMachine::send(Envelope&& env) {
  MDO_CHECK(env.dst_pe >= 0 && env.dst_pe < num_pes());
  workers_[static_cast<std::size_t>(env.src_pe >= 0 ? env.src_pe : 0)]
      ->sent.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  route(std::move(env));
}

void ThreadMachine::retire_pending() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadMachine::route(Envelope&& env) {
  if (env.src_pe > 0 && !pe_alive(env.src_pe)) {
    // A handler that was mid-flight when its PE was killed: its output
    // never reaches the wire (matches the fabric-level squash for frames
    // from dead nodes, but keeps the pending count balanced).
    workers_[static_cast<std::size_t>(env.src_pe)]->dropped.fetch_add(
        1, std::memory_order_relaxed);
    retire_pending();
    return;
  }
  if (env.dst_pe == env.src_pe) {
    enqueue(env.dst_pe, std::move(env));
    return;
  }
  if (parking_.congested(env.dst_pe)) {
    parking_.park(std::move(env));
    return;
  }
  fabric_->send(pack_delivery(env.src_pe, env));
}

void ThreadMachine::enqueue(Pe pe, Envelope&& env) {
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  if (!pe_alive(pe)) {
    // Fast-path discard. An envelope that races past this check lands in
    // the mailbox and is dropped by the worker's drain pump instead —
    // either way the pending count stays balanced.
    worker.dropped.fetch_add(1, std::memory_order_relaxed);
    retire_pending();
    return;
  }
  worker.mailbox.push(env.priority, std::move(env));
}

void ThreadMachine::worker_loop(Pe pe) {
  t_current_pe = pe;
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  const auto stopping = [this] {
    return stopping_.load(std::memory_order_acquire);
  };
  while (!stopping()) {
    std::optional<Envelope> env = worker.mailbox.try_pop();
    if (!env) {
      worker.mailbox.wait(stopping);
      continue;
    }
    if (!pe_alive(pe)) {
      // Drain pump: a killed PE never executes again, but its worker
      // keeps popping (and dropping) whatever lands in its mailbox so
      // quiescence accounting cannot strand.
      worker.dropped.fetch_add(1, std::memory_order_relaxed);
      retire_pending();
      continue;
    }
    worker.busy_ns.fetch_add(
        execute_entry(*rt_, std::move(*env), pe, options_.emulate_charge,
                      trace_, start_),
        std::memory_order_relaxed);
    worker.executed.fetch_add(1, std::memory_order_relaxed);
    if (on_pe_idle_ && worker.mailbox.empty() && pe_alive(pe)) {
      on_pe_idle_(pe);
    }
    retire_pending();
  }
}

void ThreadMachine::run() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0 ||
           stopping_.load(std::memory_order_acquire);
  });
}

void ThreadMachine::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  for (auto& worker : workers_) worker->mailbox.wake_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  fabric_->shutdown();
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_cv_.notify_all();
  }
}

PeStats ThreadMachine::pe_stats(Pe pe) const {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  const PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  PeStats stats;
  stats.busy_ns = worker.busy_ns.load(std::memory_order_relaxed);
  stats.msgs_executed = worker.executed.load(std::memory_order_relaxed);
  stats.msgs_sent = worker.sent.load(std::memory_order_relaxed);
  stats.msgs_dropped = worker.dropped.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mdo::core
