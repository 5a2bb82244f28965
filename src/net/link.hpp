// Link: the send half of the port a control point runs on.
//
// net::Network (the simulated datagram network) and
// runtime::AsyncUdpTransport (real UDP on the reactor) both implement
// it, so the same protocol objects attach to either.
#pragma once

#include "net/message.hpp"

namespace probemon::net {

/// Anything attached to a link. on_message is invoked at delivery time
/// with the clock already at that instant. Both engines prefetch the
/// destination's first four cache lines a few deliveries ahead: in the
/// simulator net::Network's delivery event, through the scheduler's
/// dispatch pipeline; on the reactor runtime::AsyncUdpTransport's
/// receive pipeline, a few datagrams ahead within a recvmmsg() batch.
/// So a client keeps the state on_message reads first in the object.
class INetworkClient {
 public:
  virtual ~INetworkClient() = default;
  virtual void on_message(const Message& msg) = 0;
};

class Link {
 public:
  virtual ~Link() = default;

  /// Attach a node; returns its address. The client must outlive the
  /// link or detach first.
  virtual NodeId attach(INetworkClient& client) = 0;
  virtual bool attached(NodeId id) const = 0;
  /// In-flight messages to a detached node are dropped on arrival.
  virtual void detach(NodeId id) = 0;
  /// Best-effort datagram send msg.from -> msg.to; false if dropped
  /// before it left.
  virtual bool send(Message msg) = 0;
};

}  // namespace probemon::net
