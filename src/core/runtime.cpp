#include "core/runtime.hpp"

#include <utility>

#include "util/logging.hpp"

namespace mdo::core {
namespace {

/// Per-thread execution context: which element is running and how much
/// virtual compute it has charged. Thread-local because ThreadMachine
/// delivers on one thread per PE; SimMachine uses a single thread.
struct ExecContext {
  bool active = false;
  sim::TimeNs charged = 0;
  Chare* element = nullptr;
};

thread_local ExecContext t_exec;

}  // namespace

// -- Chare methods that need Runtime ----------------------------------

Runtime& Chare::runtime() const {
  MDO_CHECK_MSG(rt_ != nullptr, "chare not installed in an array yet");
  return *rt_;
}

void Chare::charge(sim::TimeNs ns) { runtime().charge(ns); }

void Chare::reset_load_stats() {
  load_ns_ = 0;
  msgs_sent_ = 0;
  bytes_sent_ = 0;
  wan_msgs_ = 0;
  wan_bytes_ = 0;
}

// -- construction -------------------------------------------------------

Runtime::Runtime(std::unique_ptr<Machine> machine)
    : machine_(std::move(machine)), tree_(machine_->topology()) {
  MDO_CHECK(machine_ != nullptr);
  machine_->bind(this);
  red_shards_.reserve(static_cast<std::size_t>(machine_->num_pes()));
  for (int pe = 0; pe < machine_->num_pes(); ++pe) {
    red_shards_.push_back(std::make_unique<RedShard>());
  }
  machine_->metrics().add_source("rt", [this](obs::MetricSink& sink) {
    sink.counter("migrations", migrations_);
    sink.counter("migration_bytes", migration_bytes_);
    sink.counter("broadcast_batches",
                 bcast_batches_.load(std::memory_order_relaxed));
    sink.counter("broadcast_elems",
                 bcast_elems_.load(std::memory_order_relaxed));
    sink.gauge("arrays", static_cast<double>(arrays_.size()));
  });
}

Runtime::~Runtime() = default;

// -- arrays ---------------------------------------------------------------

ArrayId Runtime::register_array(std::unique_ptr<ArrayBase> array) {
  MDO_CHECK(array != nullptr);
  MDO_CHECK_MSG(array->id() == static_cast<ArrayId>(arrays_.size()),
                "array constructed with wrong id");
  auto r = std::make_unique<ArrayRec>();
  r->array = std::move(array);
  arrays_.push_back(std::move(r));
  return arrays_.back()->array->id();
}

ArrayBase& Runtime::array(ArrayId id) { return *rec(id).array; }

const ArrayBase& Runtime::array(ArrayId id) const {
  MDO_CHECK(id >= 0 && static_cast<std::size_t>(id) < arrays_.size());
  return *arrays_[static_cast<std::size_t>(id)]->array;
}

Runtime::ArrayRec& Runtime::rec(ArrayId id) {
  MDO_CHECK(id >= 0 && static_cast<std::size_t>(id) < arrays_.size());
  return *arrays_[static_cast<std::size_t>(id)];
}

// -- execution accounting ---------------------------------------------------

void Runtime::charge(sim::TimeNs ns) {
  MDO_CHECK(ns >= 0);
  if (!t_exec.active) return;  // host/setup code: nothing to account
  t_exec.charged += ns;
  if (t_exec.element != nullptr) t_exec.element->load_ns_ += ns;
}

// -- messaging ---------------------------------------------------------------

void Runtime::post(Envelope&& env) {
  env.src_pe = current_pe();
  env.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  env.sent_at = now();
  if (t_exec.active && t_exec.element != nullptr) {
    Chare& sender = *t_exec.element;
    ++sender.msgs_sent_;
    sender.bytes_sent_ += env.payload.size();
    if (cluster_of(env.src_pe) != cluster_of(env.dst_pe)) {
      ++sender.wan_msgs_;
      sender.wan_bytes_ += env.payload.size();
    }
  }
  machine_->send(std::move(env));
}

void Runtime::send_entry(ArrayId array_id, const Index& to, EntryId entry,
                         Priority priority, Bytes args) {
  Envelope env;
  env.kind = MsgKind::kEntry;
  env.dst_pe = rec(array_id).array->location(to);
  env.array = array_id;
  env.index = to;
  env.entry = entry;
  env.priority = priority;
  env.payload = PayloadBuf::adopt(std::move(args));
  post(std::move(env));
}

void Runtime::broadcast_entry(ArrayId array_id, EntryId entry,
                              Priority priority, Bytes args) {
  Envelope env;
  env.kind = MsgKind::kBroadcast;
  env.dst_pe = tree_.root();
  env.array = array_id;
  env.entry = entry;
  env.priority = priority;
  env.payload = PayloadBuf::adopt(std::move(args));
  if (current_pe() == tree_.root()) env.flags |= Envelope::kFlagFanout;
  post(std::move(env));
}

void Runtime::multicast_entry(ArrayId array_id, std::span<const Index> targets,
                              EntryId entry, Priority priority, Bytes args) {
  // Group destination elements by their first-hop PE — same-cluster
  // elements by their own PE, remote-cluster elements by that cluster's
  // tree root — and ship one bundle per hop holding the argument payload
  // once. The relay re-bundles per destination PE in deliver_multicast,
  // so a multicast crosses the WAN once per destination cluster rather
  // than once per destination PE. Flat mode addresses every PE directly.
  ArrayBase& arr = *rec(array_id).array;
  Pe self = current_pe();
  std::map<Pe, std::vector<Index>> by_pe;
  for (const Index& index : targets) {
    Pe hop = multicast_relay(tree_, topology(), self, arr.location(index));
    by_pe[hop].push_back(index);
  }
  post_multicast(array_id, entry, priority, by_pe, args);
}

void Runtime::post_multicast(ArrayId array_id, EntryId entry,
                             Priority priority,
                             std::map<Pe, std::vector<Index>>& by_pe,
                             Bytes& args) {
  for (auto& [pe, list] : by_pe) {
    Envelope env;
    env.kind = MsgKind::kMulticast;
    env.dst_pe = pe;
    env.array = array_id;
    env.entry = entry;
    env.priority = priority;
    Bytes packed = ScratchArena::local().take();
    Pup sizer = Pup::sizer();
    sizer | list | args;
    packed.reserve(sizer.size());
    Pup packer = Pup::packer(packed);
    packer | list | args;
    env.payload = PayloadBuf::adopt(std::move(packed));
    post(std::move(env));
  }
}

void Runtime::schedule_host(Pe pe, std::function<void()> fn, Priority priority) {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  std::uint64_t cookie;
  {
    std::lock_guard<std::mutex> lock(host_mutex_);
    cookie = next_cookie_++;
    host_fns_.emplace(cookie, std::move(fn));
  }
  Envelope env;
  env.kind = MsgKind::kHostCall;
  env.dst_pe = pe;
  env.priority = priority;
  env.payload = PayloadBuf::adopt(pack_object(cookie));
  post(std::move(env));
}

// -- delivery ----------------------------------------------------------------

sim::TimeNs Runtime::deliver(Envelope&& env) {
  MDO_CHECK_MSG(!t_exec.active, "nested delivery on one PE");
  t_exec = ExecContext{true, 0, nullptr};
  switch (env.kind) {
    case MsgKind::kEntry:
      deliver_entry(env);
      break;
    case MsgKind::kBroadcast:
      deliver_broadcast(env);
      break;
    case MsgKind::kMulticast:
      deliver_multicast(env);
      break;
    case MsgKind::kReduction:
      deliver_reduction(env);
      break;
    case MsgKind::kHostCall:
      deliver_host_call(env);
      break;
    case MsgKind::kMigrate:
      deliver_migrate(env);
      break;
    case MsgKind::kPhaseMarker:
      MDO_CHECK_MSG(false, "kPhaseMarker is trace-only, never enqueued");
      break;
  }
  sim::TimeNs charged = t_exec.charged;
  t_exec = ExecContext{};
  return charged;
}

void Runtime::invoke_on(Chare& element, EntryId entry,
                        std::span<const std::byte> args) {
  Chare* prev = t_exec.element;
  t_exec.element = &element;
  Registry::instance().entry(entry).invoke(element, args);
  t_exec.element = prev;
}

void Runtime::deliver_entry(Envelope& env) {
  ArrayBase& arr = *rec(env.array).array;
  MDO_CHECK_MSG(arr.contains(env.index), "entry message for unknown element");
  Pe where = arr.location(env.index);
  if (where != current_pe()) {
    // The element moved while this message was in flight; forward.
    Envelope fwd = std::move(env);
    fwd.dst_pe = where;
    post(std::move(fwd));
    return;
  }
  invoke_on(*arr.find(env.index), env.entry, env.payload);
}

void Runtime::deliver_broadcast(Envelope& env) {
  if ((env.flags & Envelope::kFlagFanout) == 0) {
    MDO_CHECK(current_pe() == tree_.root());
    env.flags |= Envelope::kFlagFanout;
  }
  // Forward down the spanning tree first (gets WAN hops moving), then
  // deliver to local elements.
  for (Pe child : tree_.children(current_pe())) {
    Envelope copy = env;
    copy.dst_pe = child;
    post(std::move(copy));
  }
  // Batched local delivery: iterate this PE's shard partition directly
  // (sorted order, no per-element hash lookup or index-list copy) so a
  // broadcast to a 10^6-element array amortizes dispatch per batch.
  ArrayBase& arr = *rec(env.array).array;
  std::uint64_t delivered = 0;
  arr.for_each_on(current_pe(), [&](const Index&, Chare& element) {
    invoke_on(element, env.entry, env.payload);
    ++delivered;
  });
  bcast_batches_.fetch_add(1, std::memory_order_relaxed);
  bcast_elems_.fetch_add(delivered, std::memory_order_relaxed);
}

void Runtime::deliver_multicast(Envelope& env) {
  std::vector<Index> targets;
  Bytes args;
  {
    Pup p = Pup::unpacker(env.payload);
    p | targets | args;
    MDO_CHECK(p.bytes_remaining() == 0);
  }
  ArrayBase& arr = *rec(env.array).array;
  std::map<Pe, std::vector<Index>> forward;
  for (const Index& index : targets) {
    MDO_CHECK_MSG(arr.contains(index), "multicast target does not exist");
    if (arr.location(index) == current_pe()) {
      invoke_on(*arr.find(index), env.entry, args);
    } else {
      // Relay hop (cluster root) or a migrated element: forward, still
      // bundled per destination PE so the payload ships once per PE.
      forward[arr.location(index)].push_back(index);
    }
  }
  post_multicast(env.array, env.entry, env.priority, forward, args);
}

void Runtime::deliver_host_call(Envelope& env) {
  std::uint64_t cookie = 0;
  unpack_object(env.payload, cookie);
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(host_mutex_);
    auto it = host_fns_.find(cookie);
    MDO_CHECK_MSG(it != host_fns_.end(), "unknown host-call cookie");
    fn = std::move(it->second);
    host_fns_.erase(it);
  }
  fn();
}

void Runtime::deliver_migrate(Envelope& env) {
  MDO_CHECK_MSG(rec(env.array).array->contains(env.index),
                "migrate envelope for unknown element");
  // Destroys the stale origin instance.
  rebuild_element(env.array, env.index, current_pe(), env.payload);
  ++migrations_;
  migration_bytes_ += env.payload.size();
}

void Runtime::rebuild_element(ArrayId array_id, const Index& index, Pe pe,
                              std::span<const std::byte> state) {
  ArrayRec& r = rec(array_id);
  ArrayBase& arr = *r.array;
  std::unique_ptr<Chare> fresh = arr.make_element();
  {
    Pup unpacker = Pup::unpacker(state);
    fresh->pup(unpacker);
    MDO_CHECK_MSG(unpacker.bytes_remaining() == 0,
                  "element pup() is asymmetric between pack and unpack");
  }
  fresh->install(this, array_id, index, pe);
  arr.extract(index);  // destroys the old instance
  arr.insert(index, pe, std::move(fresh));
  r.subtree_dirty = true;
}

// -- reductions -----------------------------------------------------------

ReductionClientId Runtime::add_reduction_client(ArrayId array_id,
                                                ReductionHostFn fn) {
  MDO_CHECK(static_cast<bool>(fn));
  red_clients_.push_back(ReductionClient{array_id, std::move(fn), kInvalidEntry});
  return static_cast<ReductionClientId>(red_clients_.size() - 1);
}

ReductionClientId Runtime::add_reduction_client_entry(ArrayId array_id,
                                                      EntryId entry) {
  red_clients_.push_back(ReductionClient{array_id, nullptr, entry});
  return static_cast<ReductionClientId>(red_clients_.size() - 1);
}

void Runtime::refresh_subtree_counts(ArrayRec& r) {
  // Double-checked: reduction accounting runs concurrently on every PE's
  // thread, but the counts only go stale at quiescent points (creation,
  // migration, tree rebuild), so the fast path is one acquire load.
  if (!r.subtree_dirty.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> refresh_lock(subtree_mutex_);
  if (!r.subtree_dirty.load(std::memory_order_relaxed)) return;
  const auto n = static_cast<std::size_t>(num_pes());
  r.subtree_elems.assign(n, 0);
  // Accumulate bottom-up: process PEs in reverse order of a preorder walk.
  std::vector<Pe> order;
  order.reserve(n);
  std::vector<Pe> stack{tree_.root()};
  while (!stack.empty()) {
    Pe pe = stack.back();
    stack.pop_back();
    order.push_back(pe);
    for (Pe c : tree_.children(pe)) stack.push_back(c);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t total = r.array->num_local(*it);
    for (Pe c : tree_.children(*it))
      total += r.subtree_elems[static_cast<std::size_t>(c)];
    r.subtree_elems[static_cast<std::size_t>(*it)] = total;
  }
  r.subtree_dirty.store(false, std::memory_order_release);
}

std::uint32_t Runtime::expected_contributions(ArrayRec& r, Pe pe) {
  refresh_subtree_counts(r);
  auto expected = static_cast<std::uint32_t>(r.array->num_local(pe));
  for (Pe c : tree_.children(pe)) {
    if (r.subtree_elems[static_cast<std::size_t>(c)] > 0) ++expected;
  }
  return expected;
}

void Runtime::contribute(Chare& element, std::vector<double> data,
                         ReduceOp op, ReductionClientId client) {
  MDO_CHECK_MSG(t_exec.active, "contribute() must run inside an entry method");
  std::uint32_t epoch = element.red_epoch_++;
  reduction_account(element.my_pe(), element.array_id(), epoch, op, client,
                    data);
}

void Runtime::deliver_reduction(Envelope& env) {
  std::uint32_t epoch = 0;
  std::uint8_t op = 0;
  ReductionClientId client = -1;
  std::vector<double> data;
  {
    Pup p = Pup::unpacker(env.payload);
    p | epoch | op | client | data;
    MDO_CHECK(p.bytes_remaining() == 0);
  }
  reduction_account(current_pe(), env.array, epoch,
                    static_cast<ReduceOp>(op), client, data);
}

void Runtime::reduction_account(Pe pe, ArrayId array_id, std::uint32_t epoch,
                                ReduceOp op, ReductionClientId client,
                                const std::vector<double>& data) {
  ArrayRec& r = rec(array_id);
  RedShard& shard = *red_shards_[static_cast<std::size_t>(pe)];
  bool complete = false;
  PendingReduction done;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto key = std::make_pair(array_id, epoch);
    PendingReduction& partial = shard.pending[key];
    if (!partial.meta_known) {
      partial.op = op;
      partial.client = client;
      partial.meta_known = true;
    } else {
      MDO_CHECK_MSG(partial.op == op && partial.client == client,
                    "mixed op/client within one reduction epoch");
    }
    reduce_combine(op, partial.data, data);
    ++partial.contributions;
    if (partial.contributions == expected_contributions(r, pe)) {
      done = std::move(partial);
      shard.pending.erase(key);
      complete = true;
    }
  }
  if (complete) reduction_complete(pe, array_id, epoch, std::move(done));
}

void Runtime::reduction_complete(Pe pe, ArrayId array_id, std::uint32_t epoch,
                                 PendingReduction&& partial) {
  if (pe != tree_.root()) {
    Envelope env;
    env.kind = MsgKind::kReduction;
    env.dst_pe = tree_.parent(pe);
    env.array = array_id;
    auto op = static_cast<std::uint8_t>(partial.op);
    Bytes packed = ScratchArena::local().take();
    Pup sizer = Pup::sizer();
    sizer | epoch | op | partial.client | partial.data;
    packed.reserve(sizer.size());
    Pup packer = Pup::packer(packed);
    packer | epoch | op | partial.client | partial.data;
    env.payload = PayloadBuf::adopt(std::move(packed));
    post(std::move(env));
    return;
  }
  // Root: fire the client.
  MDO_CHECK(partial.client >= 0 &&
            static_cast<std::size_t>(partial.client) < red_clients_.size());
  const ReductionClient& client = red_clients_[static_cast<std::size_t>(partial.client)];
  MDO_CHECK_MSG(client.array == array_id, "reduction client bound to another array");
  if (client.entry != kInvalidEntry) {
    broadcast_entry(array_id, client.entry, /*priority=*/0,
                    marshal(partial.data));
  } else {
    schedule_host(tree_.root(),
                  [fn = client.host_fn, data = std::move(partial.data)]() {
                    fn(data);
                  });
  }
}

// -- migration & checkpoint ---------------------------------------------

void Runtime::migrate_async(ArrayId array_id, const Index& index, Pe to) {
  MDO_CHECK(to >= 0 && to < num_pes());
  ArrayRec& r = rec(array_id);
  ArrayBase& arr = *r.array;
  MDO_CHECK_MSG(arr.contains(index), "migrate of nonexistent element");
  Pe from = arr.location(index);
  if (from == to) return;

  // Pack the element's state into a kMigrate envelope and ship it through
  // the machine like any other message — it traverses the device chain
  // (coalescing, loss recovery, ...) on WAN hops. The origin instance
  // keeps serving messages until the envelope lands on `to`, where
  // deliver_migrate rebuilds and installs the element; deliver_entry
  // forwards any messages that raced with the move. Like migrate(), call
  // at quiescent points: state packed now is what arrives.
  Bytes state = ScratchArena::local().take();
  {
    Pup packer = Pup::packer(state);
    arr.find(index)->pup(packer);
  }
  Envelope env;
  env.kind = MsgKind::kMigrate;
  env.dst_pe = to;
  env.array = array_id;
  env.index = index;
  env.payload = PayloadBuf::adopt(std::move(state));
  post(std::move(env));
}

void Runtime::migrate(ArrayId array_id, const Index& index, Pe to) {
  MDO_CHECK(to >= 0 && to < num_pes());
  MDO_CHECK_MSG(machine_->shared_address_space(),
                "in-place migrate requires a shared-address-space backend "
                "(use migrate_async on ProcessMachine)");
  ArrayBase& arr = *rec(array_id).array;
  MDO_CHECK_MSG(arr.contains(index), "migrate of nonexistent element");
  Pe from = arr.location(index);
  if (from == to) return;

  // Pack, destroy, reconstruct, unpack: the full migration code path,
  // executed in-process because migration happens at quiescent points.
  ScratchArena& arena = ScratchArena::local();
  Bytes state = arena.take();
  {
    Pup packer = Pup::packer(state);
    arr.find(index)->pup(packer);
  }
  rebuild_element(array_id, index, to, state);
  ++migrations_;
  migration_bytes_ += state.size();
  arena.give(std::move(state));
}

void Runtime::rebuild_tree(const std::vector<bool>& alive) {
  tree_ = ClusterTree(topology(), alive, tree_.mode());
  for (auto& r : arrays_) r->subtree_dirty = true;
  // Multi-process backends mirror the rebuild into every child process
  // so collective routing stays consistent mesh-wide.
  machine_->on_tree_rebuilt(alive);
}

void Runtime::set_collective_mode(TreeMode mode) {
  tree_ = ClusterTree(topology(), machine_->alive_pes(), mode);
  for (auto& r : arrays_) r->subtree_dirty = true;
}

void Runtime::replace_element(ArrayId array_id, const Index& index, Pe to,
                              std::span<const std::byte> state) {
  MDO_CHECK(to >= 0 && to < num_pes());
  MDO_CHECK_MSG(rec(array_id).array->contains(index),
                "replace of nonexistent element");
  rebuild_element(array_id, index, to, state);
  // Multi-process backends replicate the placement (and state) into
  // every child process so location maps never diverge. Only this path
  // broadcasts: a migration lands in one process by its own envelope.
  machine_->on_element_replaced(array_id, index, to, state);
}

Bytes Runtime::checkpoint_array(ArrayId array_id) {
  ArrayBase& arr = *rec(array_id).array;
  Bytes out;
  Pup packer = Pup::packer(out);
  auto count = static_cast<std::uint64_t>(arr.num_elements());
  packer | count;
  // Deterministic order: all_indices(), i.e. insertion order.
  for (Index index : arr.all_indices()) {
    Pe pe = arr.location(index);
    Bytes state;
    {
      Pup p = Pup::packer(state);
      arr.find(index)->pup(p);
    }
    packer | index | pe | state;
  }
  return out;
}

void Runtime::restore_array(ArrayId array_id, std::span<const std::byte> data) {
  ArrayRec& r = rec(array_id);
  ArrayBase& arr = *r.array;
  Pup p = Pup::unpacker(data);
  std::uint64_t count = 0;
  p | count;
  MDO_CHECK_MSG(count == arr.num_elements(),
                "checkpoint element count differs from live array");
  for (std::uint64_t i = 0; i < count; ++i) {
    Index index;
    Pe pe = kInvalidPe;
    Bytes state;
    p | index | pe | state;
    MDO_CHECK_MSG(arr.contains(index), "checkpoint names unknown element");
    if (arr.location(index) != pe) migrate(array_id, index, pe);
    Pup up = Pup::unpacker(state);
    arr.find(index)->pup(up);
    MDO_CHECK(up.bytes_remaining() == 0);
  }
  MDO_CHECK(p.bytes_remaining() == 0);
  r.subtree_dirty = true;
}

}  // namespace mdo::core
