// The 48-byte wire format probes and replies travel in over UDP.
//
// Fixed size and big-endian, so a datagram is a whole message or junk:
// AsyncUdpTransport and tools/probemon_loadgen both speak it, and a
// peer written in any language can too. Layout in wire.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/message.hpp"

namespace probemon::runtime {

inline constexpr std::size_t kUdpWireSize = 48;

/// Returns the encoded size (always kUdpWireSize).
std::size_t udp_encode(const net::Message& msg,
                       std::uint8_t out[kUdpWireSize]);

/// Returns false on a datagram of the wrong size, with an unknown kind
/// byte, or with a NaN or infinite grant (a DCPP control point waits
/// the grant: no timer can be armed that far).
bool udp_decode(const std::uint8_t in[kUdpWireSize], std::size_t size,
                net::Message& out);

}  // namespace probemon::runtime
