#include "net/socket_fabric.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "util/assert.hpp"

namespace mdo::net {

// -- FrameDecoder --------------------------------------------------------

std::array<std::byte, FrameDecoder::kHeaderBytes> FrameDecoder::encode_header(
    const Packet& packet) {
  std::array<std::byte, kHeaderBytes> out{};
  std::size_t pos = 0;
  auto put = [&](const auto& value) {
    std::memcpy(out.data() + pos, &value, sizeof(value));
    pos += sizeof(value);
  };
  const auto payload_len = static_cast<std::uint32_t>(packet.payload.size());
  MDO_CHECK_MSG(packet.payload.size() <= kMaxPayloadBytes,
                "frame payload exceeds wire limit");
  put(kMagic);
  put(payload_len);
  put(static_cast<std::int32_t>(packet.src));
  put(static_cast<std::int32_t>(packet.dst));
  put(static_cast<std::int32_t>(packet.priority));
  put(static_cast<std::uint64_t>(packet.id));
  put(static_cast<std::int64_t>(packet.inject_time));
  MDO_CHECK(pos == kHeaderBytes);
  return out;
}

void FrameDecoder::feed(std::span<const std::byte> data) {
  // Compact consumed prefix before growing; keeps the buffer bounded by
  // one partial frame plus the latest read chunk.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Packet> FrameDecoder::next() {
  if (buffered() < kHeaderBytes) return std::nullopt;
  const std::byte* base = buf_.data() + pos_;
  auto get = [&](auto& value, std::size_t offset) {
    std::memcpy(&value, base + offset, sizeof(value));
  };
  std::uint32_t magic = 0;
  std::uint32_t payload_len = 0;
  get(magic, 0);
  get(payload_len, 4);
  MDO_CHECK_MSG(magic == kMagic, "socket frame: bad magic");
  MDO_CHECK_MSG(payload_len <= kMaxPayloadBytes,
                "socket frame: absurd payload length");
  if (buffered() < kHeaderBytes + payload_len) return std::nullopt;

  Packet packet;
  std::int32_t src = 0, dst = 0, priority = 0;
  std::uint64_t id = 0;
  std::int64_t inject_time = 0;
  get(src, 8);
  get(dst, 12);
  get(priority, 16);
  get(id, 20);
  get(inject_time, 28);
  packet.src = src;
  packet.dst = dst;
  packet.priority = priority;
  packet.id = id;
  packet.inject_time = inject_time;
  packet.payload = ScratchArena::local().take();
  packet.payload.assign(base + kHeaderBytes,
                        base + kHeaderBytes + payload_len);
  pos_ += kHeaderBytes + payload_len;
  return packet;
}

// -- SocketFabric --------------------------------------------------------

SocketFabric::SocketFabric(const Topology* topo, LatencyModel* model,
                           Chain chain, NodeId self,
                           std::vector<int> peer_fds, Clock::time_point epoch)
    : topo_(topo),
      model_(model),
      chain_(std::move(chain)),
      self_(self),
      epoch_(epoch) {
  MDO_CHECK(topo_ != nullptr && model_ != nullptr);
  MDO_CHECK(self_ >= 0 &&
            static_cast<std::size_t>(self_) < topo_->num_nodes());
  MDO_CHECK(peer_fds.size() == topo_->num_nodes());
  chain_.set_host(this);
  handlers_.resize(topo_->num_nodes());
  peers_.resize(topo_->num_nodes());
  for (std::size_t j = 0; j < peer_fds.size(); ++j) {
    peers_[j].fd = peer_fds[j];
  }
  MDO_CHECK(peers_[static_cast<std::size_t>(self_)].fd < 0);
  int pipe_fds[2];
  MDO_CHECK_MSG(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) == 0,
                "socket fabric: pipe2 failed");
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];
}

SocketFabric::~SocketFabric() { shutdown(); }

void SocketFabric::start() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(!network_.joinable() && !stop_);
  network_ = std::thread([this] { network_loop(); });
}

void SocketFabric::shutdown() {
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  wake();
  if (network_.joinable()) network_.join();
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (auto& peer : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
    peer.fd = -1;
  }
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  wake_r_ = wake_w_ = -1;
}

void SocketFabric::wake() {
  const char byte = 1;
  for (;;) {
    ssize_t n = ::write(wake_w_, &byte, 1);
    if (n == 1) return;
    if (n < 0 && errno == EINTR) continue;
    return;  // EAGAIN: pipe already has a pending wakeup — good enough
  }
}

void SocketFabric::set_delivery_handler(NodeId node, DeliverFn handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(node == self_);
  handlers_[static_cast<std::size_t>(node)] = std::move(handler);
}

void SocketFabric::set_node_up_probe(NodeUpProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  node_up_ = std::move(probe);
}

bool SocketFabric::host_node_up(NodeId node) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return !node_up_ || node_up_(node);
}

void SocketFabric::host_locked(const std::function<void()>& fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  fn();
}

void SocketFabric::enqueue_frames(std::vector<Packet>& wire,
                                  const SendContext& ctx) {
  const sim::TimeNs now = now_ns();
  for (auto& frame : wire) {
    // Fail-stop crash model, same as ThreadFabric: a dead node's frames
    // never reach the wire. Here src is always the local node, so this
    // only fires once the local PE itself has been declared dead.
    if (node_up_ && !node_up_(frame.src)) {
      ++stats_.dead_node_drops;
      continue;
    }
    ++stats_.wire_frames;
    if (!topo_->same_cluster(frame.src, frame.dst)) ++stats_.wan_wire_frames;
    sim::TimeNs enter_net = now + ctx.extra_delay + frame.hold_ns;
    frame.hold_ns = 0;
    sim::TimeNs net_delay = model_->delivery_delay(
        frame.src, frame.dst, frame.payload.size(), enter_net);
    Clock::time_point due =
        epoch_ + std::chrono::nanoseconds(enter_net + net_delay);
    pending_.push(Timed{due, next_seq_++, std::move(frame)});
  }
}

sim::TimeNs SocketFabric::send(Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(!stop_);
  packet.id = next_id_++;
  packet.inject_time = now_ns();

  ++stats_.packets_sent;
  stats_.bytes_sent += packet.payload.size();
  if (!topo_->same_cluster(packet.src, packet.dst)) {
    ++stats_.wan_packets;
    stats_.wan_bytes += packet.payload.size();
  }

  SendContext ctx;
  send_through(nullptr, std::move(packet), ctx);
  wake();
  return ctx.cpu_cost;
}

void SocketFabric::inject_send(const FilterDevice* from, Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  ++stats_.frames_injected;
  SendContext ctx;
  send_through(from, std::move(packet), ctx);
  wake();
}

void SocketFabric::send_through(const FilterDevice* below, Packet&& packet,
                                SendContext& ctx) {
  if (wire_busy_) {
    std::vector<Packet> wire =
        below == nullptr
            ? chain_.apply_send(std::move(packet), ctx)
            : chain_.apply_send_below(below, std::move(packet), ctx);
    enqueue_frames(wire, ctx);
    return;
  }
  wire_busy_ = true;
  if (below == nullptr) {
    chain_.apply_send(std::move(packet), ctx, wire_scratch_);
  } else {
    chain_.apply_send_below(below, std::move(packet), ctx, wire_scratch_);
  }
  enqueue_frames(wire_scratch_, ctx);
  wire_scratch_.clear();
  wire_busy_ = false;
}

void SocketFabric::inject_receive(const FilterDevice* from, Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  std::optional<Packet> complete =
      chain_.apply_receive_above(from, std::move(packet));
  if (!complete.has_value()) return;
  ++stats_.packets_delivered;
  DeliverFn handler = handlers_[static_cast<std::size_t>(complete->dst)];
  MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
  // Called with the fabric mutex held (nested inside a chain transform);
  // same contract as ThreadFabric.
  handler(std::move(*complete));
}

void SocketFabric::host_schedule(sim::TimeNs dt, std::function<void()> fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  Clock::time_point due = Clock::now() + std::chrono::nanoseconds(dt);
  timers_.push(Timer{due, next_seq_++, std::move(fn)});
  wake();
}

void SocketFabric::deliver_complete(
    Packet&& packet, std::unique_lock<std::recursive_mutex>& lock) {
  std::optional<Packet> complete = chain_.apply_receive(std::move(packet));
  if (!complete.has_value()) return;
  ++stats_.packets_delivered;
  MDO_CHECK(complete->dst == self_);
  DeliverFn handler = handlers_[static_cast<std::size_t>(complete->dst)];
  MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
  // Deliver outside the lock: the handler enqueues into the machine's
  // mailbox, which takes its own lock and may race with concurrent
  // send().
  lock.unlock();
  handler(std::move(*complete));
  lock.lock();
}

void SocketFabric::route_due_frame(
    Packet&& packet, std::unique_lock<std::recursive_mutex>& lock) {
  if (packet.dst == self_) {
    // Loopback traffic travels through the same deadline queue as remote
    // traffic (delay devices apply), then straight up the receive chain.
    deliver_complete(std::move(packet), lock);
    return;
  }
  Peer& peer = peers_[static_cast<std::size_t>(packet.dst)];
  if (peer.fd < 0 || peer.down) {
    ++socket_stats_.link_down_drops;
    ScratchArena::local().give(std::move(packet.payload));
    return;
  }
  OutFrame frame;
  frame.header = FrameDecoder::encode_header(packet);
  frame.payload = std::move(packet.payload);
  peer.out.push_back(std::move(frame));
}

void SocketFabric::link_down(Peer& peer) {
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  peer.down = true;
  ++socket_stats_.peer_disconnects;
  socket_stats_.link_down_drops += peer.out.size();
  peer.out.clear();
  peer.offset = 0;
  if (peer.decoder.mid_frame()) {
    // The peer died mid-write: the dangling frame prefix is contained —
    // counted, never delivered, never parsed past its length field.
    ++socket_stats_.truncated_frames;
  }
}

void SocketFabric::flush_peer(Peer& peer) {
  while (peer.fd >= 0 && !peer.out.empty()) {
    OutFrame& front = peer.out.front();
    const std::size_t total =
        FrameDecoder::kHeaderBytes + front.payload.size();
    struct iovec iov[2];
    int iovcnt = 0;
    if (peer.offset < FrameDecoder::kHeaderBytes) {
      iov[iovcnt].iov_base = front.header.data() + peer.offset;
      iov[iovcnt].iov_len = FrameDecoder::kHeaderBytes - peer.offset;
      ++iovcnt;
      if (!front.payload.empty()) {
        iov[iovcnt].iov_base = front.payload.data();
        iov[iovcnt].iov_len = front.payload.size();
        ++iovcnt;
      }
    } else {
      const std::size_t done = peer.offset - FrameDecoder::kHeaderBytes;
      iov[iovcnt].iov_base = front.payload.data() + done;
      iov[iovcnt].iov_len = front.payload.size() - done;
      ++iovcnt;
    }
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t n = ::sendmsg(peer.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) {
        ++socket_stats_.eintr_retries;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // poll POLLOUT
      link_down(peer);  // EPIPE / ECONNRESET: peer process is gone
      return;
    }
    peer.offset += static_cast<std::size_t>(n);
    if (peer.offset == total) {
      ScratchArena::local().give(std::move(front.payload));
      peer.out.pop_front();
      peer.offset = 0;
    } else {
      ++socket_stats_.partial_writes;  // kernel buffer full mid-frame
    }
  }
}

void SocketFabric::read_peer(std::size_t index,
                             std::unique_lock<std::recursive_mutex>& lock) {
  Peer& peer = peers_[index];
  std::array<std::byte, 65536> buf;
  for (;;) {
    if (peer.fd < 0) return;
    ssize_t n = ::recv(peer.fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) {
        ++socket_stats_.eintr_retries;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      link_down(peer);
      return;
    }
    if (n == 0) {  // orderly EOF: peer exited or was SIGKILLed
      link_down(peer);
      return;
    }
    peer.decoder.feed({buf.data(), static_cast<std::size_t>(n)});
    while (auto frame = peer.decoder.next()) {
      deliver_complete(std::move(*frame), lock);
      if (peer.fd < 0) return;  // handler raced a shutdown
    }
    if (static_cast<std::size_t>(n) < buf.size()) break;  // drained
  }
}

void SocketFabric::network_loop() {
  std::unique_lock<std::recursive_mutex> lock(mutex_);
  std::vector<struct pollfd> fds;
  std::vector<std::size_t> fd_peer;
  while (!stop_) {
    // 1. Run everything that is due: timers with the mutex held (they
    //    mutate chain state), frames into rings or local delivery.
    bool due_work = true;
    while (due_work) {
      due_work = false;
      const Clock::time_point now = Clock::now();
      if (!timers_.empty() && timers_.top().due <= now &&
          (pending_.empty() || timers_.top().due <= pending_.top().due)) {
        auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
        timers_.pop();
        fn();
        due_work = true;
      } else if (!pending_.empty() && pending_.top().due <= now) {
        Timed item = std::move(const_cast<Timed&>(pending_.top()));
        pending_.pop();
        route_due_frame(std::move(item.packet), lock);
        due_work = true;
      }
      if (stop_) return;
    }

    // 2. Drain send rings as far as the kernel accepts.
    for (auto& peer : peers_) {
      if (!peer.out.empty()) flush_peer(peer);
    }

    // 3. Sleep until the next deadline or a socket/wakeup event.
    std::optional<Clock::time_point> next_due;
    if (!timers_.empty()) next_due = timers_.top().due;
    if (!pending_.empty() &&
        (!next_due.has_value() || pending_.top().due < *next_due)) {
      next_due = pending_.top().due;
    }
    fds.clear();
    fd_peer.clear();
    fds.push_back({wake_r_, POLLIN, 0});
    fd_peer.push_back(peers_.size());
    for (std::size_t j = 0; j < peers_.size(); ++j) {
      if (peers_[j].fd < 0) continue;
      short events = POLLIN;
      if (!peers_[j].out.empty()) events |= POLLOUT;
      fds.push_back({peers_[j].fd, events, 0});
      fd_peer.push_back(j);
    }
    struct timespec ts;
    struct timespec* tsp = nullptr;
    if (next_due.has_value()) {
      auto wait = *next_due - Clock::now();
      if (wait.count() < 0) wait = {};
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait);
      ts.tv_sec = static_cast<time_t>(ns.count() / 1000000000);
      ts.tv_nsec = static_cast<long>(ns.count() % 1000000000);
      tsp = &ts;
    }
    lock.unlock();
    int ready = ::ppoll(fds.data(), fds.size(), tsp, nullptr);
    lock.lock();
    if (ready < 0) {
      MDO_CHECK_MSG(errno == EINTR, "socket fabric: ppoll failed");
      ++socket_stats_.eintr_retries;
      continue;
    }
    if (stop_) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_peer[i] == peers_.size()) {
        char drain[64];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      Peer& peer = peers_[fd_peer[i]];
      if (peer.fd != fds[i].fd) continue;  // closed while polling
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_peer(fd_peer[i], lock);
      }
      // POLLOUT is handled by the flush pass at the top of the loop.
    }
  }
}

SocketFabric::Stats SocketFabric::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return stats_;
}

SocketFabric::SocketStats SocketFabric::socket_stats() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return socket_stats_;
}

}  // namespace mdo::net
