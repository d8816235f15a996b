#pragma once
// Concrete filter devices: artificial latency injection, RLE compression,
// FNV-1a integrity checking, and xor-keystream encryption. Together with
// StripingDevice (striping.hpp) these reproduce the capabilities the VMI
// paper and §2.2 of the reproduced paper attribute to device chains.

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "net/device.hpp"
#include "net/topology.hpp"

namespace mdo::net {

/// The paper's "delay device driver": packets whose endpoints are in
/// different clusters are held for a configured one-way delay before
/// being passed to the network device. The delay is added to each
/// frame's Packet::hold_ns, so a send that devices above split into
/// several frames (striping rails, a fault-injected duplicate) holds
/// each of them once. Per-node-pair overrides allow arbitrary latencies
/// between arbitrary pairs, as §5.1 describes.
class DelayDevice final : public FilterDevice {
 public:
  DelayDevice(const Topology* topo, sim::TimeNs cross_cluster_delay);

  /// Override the artificial delay for one ordered node pair.
  void set_pair_delay(NodeId src, NodeId dst, sim::TimeNs delay);

  /// Override the artificial delay for one directed cluster pair (the
  /// artificial-mode realization of the Topology's WAN link table).
  /// Consulted after node-pair overrides and before the default.
  void set_cluster_delay(ClusterId src, ClusterId dst, sim::TimeNs delay);

  sim::TimeNs cross_cluster_delay() const { return default_delay_; }
  const char* name() const override { return "delay"; }

 protected:
  void on_send(Packet& packet, SendContext& ctx) override;

 private:
  const Topology* topo_;
  sim::TimeNs default_delay_;
  std::map<std::pair<NodeId, NodeId>, sim::TimeNs> pair_delay_;
  std::map<std::pair<ClusterId, ClusterId>, sim::TimeNs> cluster_delay_;
};

/// Scenario-level switch for the compression device.
struct CompressionConfig {
  bool enabled = false;  ///< gates installation in the reliability stack
};

/// Byte-level run-length encoding; falls back to a stored (uncompressed)
/// block when RLE would grow the payload. One flag byte leads the wire
/// format. Charges kCpuNsPerByte to the send context. Malformed or
/// truncated frames (possible once fault injection corrupts the wire)
/// are counted and dropped, never decoded past their bounds.
class CompressionDevice final : public FilterDevice {
 public:
  /// Sender CPU per payload byte encoded.
  static constexpr double kCpuNsPerByte = 0.35;

  const char* name() const override { return "compress"; }

  /// Live retune (fabric context): while disabled, every payload is
  /// framed as a stored block (no encode attempt, no CPU charge). The
  /// wire format keeps its leading flag byte either way, so frames sent
  /// before a toggle decode fine after it.
  void retune_enabled(bool on) { encode_enabled_ = on; }
  bool encode_enabled() const { return encode_enabled_; }

  static Bytes rle_encode(const Bytes& in);
  /// nullopt for malformed input (odd length, zero-length run).
  static std::optional<Bytes> rle_decode(std::span<const std::byte> in);

  /// In-place variants appending into a caller buffer (cleared first) so
  /// the hot path can feed them arena-recycled storage. rle_decode_into
  /// returns false for malformed input.
  static void rle_encode_into(std::span<const std::byte> in, Bytes& out);
  static bool rle_decode_into(std::span<const std::byte> in, Bytes& out);

  std::uint64_t bytes_saved() const { return bytes_saved_; }
  std::uint64_t decode_failures() const { return decode_failures_; }

  std::optional<Packet> receive_transform(Packet packet) override;

 protected:
  void on_send(Packet& packet, SendContext& ctx) override;

 private:
  bool encode_enabled_ = true;
  std::uint64_t bytes_saved_ = 0;
  std::uint64_t decode_failures_ = 0;
};

/// Appends a 64-bit FNV-1a digest on send and verifies/strips it on
/// receive. By default a mismatch aborts (corruption in an in-process
/// fabric is a program bug, not an operational event); with
/// drop_on_mismatch the frame is silently discarded instead so that a
/// reliability device above can recover it by retransmission — the mode
/// used under fault injection.
class ChecksumDevice final : public FilterDevice {
 public:
  explicit ChecksumDevice(bool drop_on_mismatch = false)
      : drop_on_mismatch_(drop_on_mismatch) {}
  const char* name() const override { return "checksum"; }

  static std::uint64_t fnv1a(std::span<const std::byte> data);

  std::uint64_t packets_verified() const { return verified_; }
  std::uint64_t corrupt_dropped() const { return corrupt_dropped_; }

  std::optional<Packet> receive_transform(Packet packet) override;

 protected:
  void on_send(Packet& packet, SendContext& ctx) override;

 private:
  bool drop_on_mismatch_;
  std::uint64_t verified_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
};

/// Xor keystream derived from (key, packet id): self-inverse, stateless
/// across packets, so send/receive sides need no handshake.
class CryptoDevice final : public FilterDevice {
 public:
  explicit CryptoDevice(std::uint64_t key) : key_(key) {}
  const char* name() const override { return "crypto"; }

 protected:
  void on_send(Packet& packet, SendContext& ctx) override;
  void on_receive(Packet& packet) override;

 private:
  void apply_keystream(Packet& packet) const;
  std::uint64_t key_;
};

}  // namespace mdo::net
