#include "core/thread_machine.hpp"

#include "core/runtime.hpp"
#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace mdo::core {
namespace {

thread_local Pe t_current_pe = kInvalidPe;

/// Per-PE inbox ring depth. Bursts beyond it spill to the mutex-guarded
/// overflow list (counted as handoff_fallbacks), so capacity bounds
/// memory, not correctness.
constexpr std::size_t kInboxCapacity = 1u << 10;

/// Max envelopes moved from the inbox into the run queue per refill.
constexpr std::size_t kPopBatch = 256;

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
    auto worker = std::make_unique<PeWorker>();
    worker->inbox = std::make_unique<obs::MpscRing<RunItem>>(kInboxCapacity);
    worker->batch.reserve(kPopBatch);
    workers_.push_back(std::move(worker));
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
    s.queue_depth += worker->runq_depth.load(std::memory_order_relaxed) +
                     worker->inbox->size() +
                     worker->overflow_count.load(std::memory_order_relaxed);
    s.handoffs += worker->inbox->pushed();
    s.handoff_batches += worker->inbox->batches();
    s.handoff_fallbacks += worker->inbox->full_rejects();
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
  if (!mark_killed(pe)) return;
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  // The worker itself drains and discards its inbox/run queue: it stays
  // alive as a drain pump (see worker_loop), so an envelope pushed
  // concurrently with the kill is still consumed and its pending count
  // balanced — there is no push-after-drain window.
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.cv.notify_all();
  }
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
    // the inbox and is discarded by the worker's drain pump instead —
    // either way the pending count stays balanced.
    worker.dropped.fetch_add(1, std::memory_order_relaxed);
    retire_pending();
    return;
  }
  RunItem item{env.priority, next_seq_.fetch_add(1, std::memory_order_relaxed),
               std::move(env)};
  if (!worker.inbox->try_push(std::move(item))) {
    // Ring full: spill to the overflow list under the mutex. Rare by
    // construction (the ring absorbs bursts), and never drops.
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.overflow.push_back(std::move(item));
    worker.overflow_count.store(worker.overflow.size(),
                                std::memory_order_release);
    worker.cv.notify_one();
    return;
  }
  // Lock-free handoff done; wake the consumer only if it is (or is about
  // to go) sleeping. The seq_cst publish in try_push pairs with the
  // worker's seq_cst sleep-flag store: one of the two sides always sees
  // the other (store-buffering litmus), so no wake-up is lost.
  if (worker.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.cv.notify_one();
  }
}

void ThreadMachine::refill_runq(PeWorker& worker) {
  worker.batch.clear();
  worker.inbox->pop_batch(worker.batch, kPopBatch);
  if (worker.overflow_count.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(worker.mutex);
    for (RunItem& item : worker.overflow) {
      worker.batch.push_back(std::move(item));
    }
    worker.overflow.clear();
    worker.overflow_count.store(0, std::memory_order_release);
  }
  for (RunItem& item : worker.batch) worker.runq.push(std::move(item));
}

void ThreadMachine::discard_runq(PeWorker& worker) {
  const std::size_t drained = worker.runq.clear();
  worker.runq_depth.store(0, std::memory_order_relaxed);
  worker.dropped.fetch_add(drained, std::memory_order_relaxed);
  for (std::size_t i = 0; i < drained; ++i) retire_pending();
}

void ThreadMachine::worker_loop(Pe pe) {
  t_current_pe = pe;
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) return;
    refill_runq(worker);

    if (!pe_alive(pe)) {
      // Drain pump: a killed PE never executes again, but its worker
      // keeps consuming (and discarding) whatever still lands in the
      // inbox so quiescence accounting cannot strand.
      discard_runq(worker);
    }

    if (worker.runq.empty()) {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.sleeping.store(true, std::memory_order_seq_cst);
      if (!worker.inbox->consumer_has_items() &&
          worker.overflow_count.load(std::memory_order_acquire) == 0 &&
          !stopping_.load(std::memory_order_acquire)) {
        worker.cv.wait(lock, [&] {
          return stopping_.load(std::memory_order_acquire) ||
                 worker.inbox->consumer_has_items() ||
                 worker.overflow_count.load(std::memory_order_acquire) > 0;
        });
      }
      worker.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }

    Envelope env = worker.runq.pop();
    worker.runq_depth.store(worker.runq.size(), std::memory_order_relaxed);

    worker.busy_ns.fetch_add(
        execute_entry(*rt_, std::move(env), pe, options_.emulate_charge,
                      trace_, start_),
        std::memory_order_relaxed);
    worker.executed.fetch_add(1, std::memory_order_relaxed);

    const bool idle_now =
        worker.runq.empty() && !worker.inbox->consumer_has_items();
    if (idle_now && on_pe_idle_ && pe_alive(pe)) on_pe_idle_(pe);
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
  for (auto& worker : workers_) worker->cv.notify_all();
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
