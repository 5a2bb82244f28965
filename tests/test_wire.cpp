// Tests for the 48-byte UDP wire codec (runtime/wire.hpp).
#include <gtest/gtest.h>

#include <limits>

#include "runtime/wire.hpp"

namespace probemon::runtime {
namespace {

TEST(UdpWire, EncodeDecodeRoundTrip) {
  net::Message msg;
  msg.kind = net::MessageKind::kReply;
  msg.from = 3;
  msg.to = 4;
  msg.cycle = 0x1122334455667788ULL;
  msg.attempt = 2;
  msg.pc = 0xAABBCCDDEEFF0011ULL;
  msg.grant_delay = 0.31415926;
  msg.last_probers = {7, 9};
  msg.subject = 12;
  msg.ttl = 5;

  std::uint8_t wire[kUdpWireSize];
  EXPECT_EQ(udp_encode(msg, wire), kUdpWireSize);

  net::Message decoded;
  ASSERT_TRUE(udp_decode(wire, kUdpWireSize, decoded));
  EXPECT_EQ(decoded.kind, msg.kind);
  EXPECT_EQ(decoded.from, msg.from);
  EXPECT_EQ(decoded.to, msg.to);
  EXPECT_EQ(decoded.cycle, msg.cycle);
  EXPECT_EQ(decoded.attempt, msg.attempt);
  EXPECT_EQ(decoded.pc, msg.pc);
  EXPECT_DOUBLE_EQ(decoded.grant_delay, msg.grant_delay);
  EXPECT_EQ(decoded.last_probers, msg.last_probers);
  EXPECT_EQ(decoded.subject, msg.subject);
  EXPECT_EQ(decoded.ttl, msg.ttl);
}

TEST(UdpWire, RejectsMalformedInput) {
  std::uint8_t wire[kUdpWireSize] = {};
  net::Message out;
  EXPECT_FALSE(udp_decode(wire, kUdpWireSize - 1, out));  // short datagram
  wire[0] = 0xFF;                                         // bogus kind
  EXPECT_FALSE(udp_decode(wire, kUdpWireSize, out));

  // A grant no timer can wait: NaN and either infinity.
  for (const double grant : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    net::Message reply;
    reply.kind = net::MessageKind::kReply;
    reply.grant_delay = grant;
    udp_encode(reply, wire);
    EXPECT_FALSE(udp_decode(wire, kUdpWireSize, out)) << grant;
  }
}

}  // namespace
}  // namespace probemon::runtime
