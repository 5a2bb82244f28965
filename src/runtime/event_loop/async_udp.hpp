// AsyncUdpTransport: batched, segmentation-offloaded, non-blocking UDP
// for the event loop.
//
// The transport multiplexes *all* locally attached NodeIds over ONE
// non-blocking socket owned by an EventLoop — the 48-byte wire format
// (runtime/wire.hpp) carries from/to ids in the payload, so one fd (and
// one epoll registration) serves 10^5 endpoints. IO is batched and, on
// Linux, segmentation-offloaded:
//
//   * send    — send() encodes into a pending batch of up to 64
//     datagrams, flushed when full and at the end of every loop
//     iteration (the transport registers itself as a loop flush hook),
//     so datagrams never sit across a sleep. Each run of consecutive
//     datagrams to one port is one sendmmsg() message whose payload the
//     kernel splits back into 48-byte datagrams (UDP_SEGMENT, GSO).
//   * receive — recvmmsg() pulls up to 64 messages per syscall; with
//     UDP_GRO a message may be a whole run, split here by the segment
//     size the kernel reports. The loop's level-triggered epoll re-arms
//     if more than 4096 datagrams are queued (fairness bound). Each
//     call's batch is handled as one unit. One steady-clock read when
//     the call returns is every handler's now()
//     (EventLoop::BatchInstant), so a reply is judged by when it was
//     received, not by when the loop reached it. The batch is split
//     into datagrams, which are dispatched in arrival order as a
//     software pipeline: each is decoded 2k datagrams ahead of its
//     dispatch, where its client-table entries (to and from) are
//     prefetched, and k ahead its destination's first four lines are
//     (net/link.hpp; k = 4, as in des::Scheduler). Dispatch reads the
//     table afresh, so a handler may attach or detach endpoints
//     mid-batch: only a prefetch ever sees a stale entry.
//
// Every probe and reply still crosses the kernel as its own 48-byte
// wire datagram: a peer without GRO (tools/probemon_loadgen) receives
// exactly the datagrams it would without offload. Offload is on when
// the kernel accepts the socket options; when it refuses, a run is one
// datagram. Non-Linux builds fall back to recvfrom()/sendto() per
// datagram over the same non-blocking socket; semantics are identical,
// only the syscall count differs.
//
// Routing: destinations that are locally attached loop through the
// socket to our own port (real kernel UDP, not a shortcut). External
// peers are learned from datagram source addresses — the first message
// from an unknown NodeId binds that id to its source port (how
// tools/probemon_loadgen gets replies back) — or pinned explicitly via
// set_peer(). A datagram from our own port teaches nothing: its sender
// is a local endpoint that detached while the datagram was in flight.
//
// The transport is the reactor's net::Link: core control points attach
// to it as they attach to the simulated network, and its arena() is
// the EntityArena they count into, one per transport.
//
// Threading: attach/detach/send/flush/set_peer are loop-confined (loop
// thread, or while the loop is not running — enforced under
// PROBEMON_CHECKED); the counter accessors and instrument()'s callbacks
// are atomics, safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/entity_arena.hpp"
#include "net/link.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "runtime/wire.hpp"
#include "telemetry/registry.hpp"

namespace probemon::runtime {

class AsyncUdpTransport final : public net::Link {
 public:
  struct Config {
    /// UDP port to bind on 127.0.0.1; 0 = ephemeral (see local_port()).
    std::uint16_t port = 0;
  };

  /// Binds the socket and registers it (plus a flush hook) on `loop`,
  /// which must not be running yet or must be driven by the caller.
  explicit AsyncUdpTransport(EventLoop& loop);
  AsyncUdpTransport(EventLoop& loop, Config config);
  ~AsyncUdpTransport();

  AsyncUdpTransport(const AsyncUdpTransport&) = delete;
  AsyncUdpTransport& operator=(const AsyncUdpTransport&) = delete;

  // Link (loop-confined). A detached client is not invoked again; send()
  // is false for a destination with no route.
  net::NodeId attach(net::INetworkClient& client) override;
  void detach(net::NodeId id) override;
  bool attached(net::NodeId id) const noexcept override {
    return id < clients_.size() && clients_[id] != nullptr;
  }
  bool send(net::Message msg) override;

  /// Pin an external NodeId to a UDP port on 127.0.0.1 (loop-confined).
  /// Datagram source addresses update the same table automatically.
  void set_peer(net::NodeId id, std::uint16_t port);

  std::uint16_t local_port() const noexcept { return local_port_; }
  int fd() const noexcept { return fd_; }
  EventLoop& loop() const noexcept { return loop_; }
  /// Entity accounting for the control points on this transport
  /// (loop-confined).
  core::EntityArena& arena() noexcept { return arena_; }

  /// Transmit the pending send batch now (loop-confined). Called
  /// automatically as a loop flush hook; exposed for tests.
  void flush();

  // --- scrape-safe counters (atomics; any thread) -------------------------
  std::uint64_t sent_count() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_count() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t send_error_count() const noexcept {
    return send_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t recv_error_count() const noexcept {
    return recv_errors_.load(std::memory_order_relaxed);
  }
  /// Datagrams that decoded fine but addressed no attached client and
  /// no known peer — the transport's drop counter.
  std::uint64_t unroutable_count() const noexcept {
    return unroutable_.load(std::memory_order_relaxed);
  }

  /// Mirror counters into `registry` with label transport=<name>
  /// (probemon_transport_datagrams_{sent,delivered}_total,
  /// probemon_transport_{send,recv}_errors_total,
  /// probemon_transport_unroutable_total) plus a histogram of datagrams
  /// per receive call, coalesced ones included — the distribution that
  /// shows how much batching actually bought. Every counter counts
  /// datagrams, never syscalls or coalesced messages. The registry must
  /// outlive the transport.
  void instrument(telemetry::Registry& registry,
                  const std::string& transport_name = "async_udp");

 private:
  struct IoBatches;  // platform-specific scratch (mmsghdr arrays)
  struct Received;   // a datagram decoded ahead of its dispatch

  void on_readable();
  /// The receive pipeline's prefetches: the client-table entries of a
  /// decoded datagram's `to` and `from`, and the first four lines of its
  /// destination (net/link.hpp).
  void prefetch_entries(const Received& r) const;
  void prefetch_destination(const Received& r) const;
  /// Count, learn from and route one received datagram.
  void dispatch(const Received& r);
  void assert_loop_confined(const char* what) const;

  EventLoop& loop_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::uint64_t flush_hook_ = 0;

  /// Dense client table indexed by NodeId (ids start at 1).
  std::vector<net::INetworkClient*> clients_;
  core::EntityArena arena_;
  net::NodeId next_id_ = 1;
  /// External NodeId -> UDP port (127.0.0.1), learned or pinned.
  std::unordered_map<net::NodeId, std::uint16_t> peers_;

  std::unique_ptr<IoBatches> io_;

  telemetry::Histogram* recv_depth_hist_ = nullptr;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> send_errors_{0};
  std::atomic<std::uint64_t> recv_errors_{0};
  std::atomic<std::uint64_t> unroutable_{0};
};

}  // namespace probemon::runtime
