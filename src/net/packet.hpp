#pragma once
// The unit of transfer at the message-layer level. The runtime's Envelope
// is serialized into Packet::payload; the net layer treats it as opaque
// bytes, exactly as VMI treats Charm++ messages.

#include <cstdint>

#include "sim/time.hpp"
#include "util/buffer.hpp"

namespace mdo::net {

using NodeId = std::int32_t;

struct Packet {
  NodeId src = -1;
  NodeId dst = -1;
  std::uint64_t id = 0;          ///< fabric-assigned, unique per fabric
  std::int32_t priority = 0;     ///< passed through to the runtime scheduler
  sim::TimeNs inject_time = 0;   ///< when send() was called (virtual or real ns)
  sim::TimeNs hold_ns = 0;       ///< per-frame extra hold before the network
                                 ///< device (delay device, fault-injected
                                 ///< jitter); consumed by the fabric, never
                                 ///< serialized
  Bytes payload;
};

}  // namespace mdo::net
