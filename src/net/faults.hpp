#pragma once
// Fault-injection filter device: a hostile WAN in a box. Sits near the
// wire end of a device chain and probabilistically drops, duplicates,
// corrupts, and jitters (reorders) every frame that passes on the send
// path — data, acks, and retransmissions alike. All randomness comes
// from one seeded SplitMix64 stream, so a SimMachine run under fault
// injection is reproducible bit-for-bit: same seed, same faults, same
// retransmit/duplicate/drop counters. Pair with ReliableDevice (above)
// and ChecksumDevice in drop_on_mismatch mode (between the two) to give
// the runtime exactly-once in-order delivery over this lossy wire.
//
// Beyond per-frame randomness the device also models *partitions*:
// drop-all windows on a directed cluster pair, the way real grid WAN
// links gray-fail — one site's route to another goes dark for a while
// and then heals, with the reverse direction often unaffected. Windows
// are scheduled in fabric time (deterministic, seedable via
// Scenario::with_partitions) or toggled manually at runtime with
// set_partition_active (for ThreadMachine chaos tests). Partition drops
// consume no randomness, so frames outside the window draw the same
// fault stream whether or not partitions are configured.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "net/device.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace mdo::net {

/// Drop-all window on one directed cluster pair: every frame whose
/// source cluster is `src` and destination cluster is `dst` vanishes
/// while start <= now < end. The reverse direction is untouched.
struct PartitionWindow {
  ClusterId src = 0;
  ClusterId dst = 0;
  sim::TimeNs start = 0;
  sim::TimeNs end = 0;
};

struct FaultConfig {
  double drop = 0.0;        ///< P(frame silently vanishes)
  double duplicate = 0.0;   ///< P(frame is delivered twice)
  double corrupt = 0.0;     ///< P(one payload byte is flipped)
  double reorder = 0.0;     ///< P(frame is held for extra jitter)
  sim::TimeNs reorder_jitter = sim::milliseconds(1.0);  ///< max extra hold
  std::uint64_t seed = 0x5eedULL;
  /// Scheduled directed-link outages; needs a Topology to map nodes to
  /// clusters (the reliability stack passes its own).
  std::vector<PartitionWindow> partitions;

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0 || reorder > 0.0 ||
           !partitions.empty();
  }
};

class FaultDevice final : public FilterDevice {
 public:
  /// `topo` may be null when no partitions are used (scheduled windows
  /// and manual toggles are ignored without cluster information).
  explicit FaultDevice(FaultConfig config, const Topology* topo = nullptr);

  const char* name() const override { return "fault"; }

  void send_transform(std::vector<Packet>& packets, SendContext& ctx) override;

  /// Manually raise/heal a directed cluster-pair partition, independent
  /// of any scheduled windows. Thread-safe: chaos tests drive this from
  /// the host thread while a SocketFabric network thread is delivering.
  void set_partition_active(ClusterId src, ClusterId dst, bool active);

  /// True if a scheduled window or manual toggle currently severs the
  /// directed src-cluster -> dst-cluster link at fabric time `now`.
  bool partition_active(NodeId src, NodeId dst, sim::TimeNs now) const;

  struct Counters {
    std::uint64_t seen = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t reordered = 0;
    std::uint64_t partition_dropped = 0;
  };
  const Counters& counters() const { return counters_; }
  const FaultConfig& config() const { return config_; }

 private:
  void corrupt_one_byte(Packet& packet);
  void maybe_jitter(Packet& packet);

  FaultConfig config_;
  const Topology* topo_;
  SplitMix64 rng_;
  Counters counters_;
  /// Manual overrides; the atomic gate keeps the wire hot path lock-free
  /// whenever no test has ever toggled a link.
  std::atomic<bool> manual_any_{false};
  mutable std::mutex manual_mutex_;
  std::map<std::pair<ClusterId, ClusterId>, bool> manual_;
};

}  // namespace mdo::net
