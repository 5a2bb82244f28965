// Tests for the event-loop runtime: AsyncUdpTransport routing, peer
// learning and segmentation offload (runs of datagrams sent as one
// message, coalesced receives split back) over real sockets, the
// receive batch as one unit (its dispatch pipeline and its one instant),
// device/control-point protocol behaviour
// (clean cycles, retransmission, absence, fair sharing), the
// AsyncPresenceService facade, and a few-hundred-endpoint smoke run on
// one loop thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace probemon::runtime {
namespace {

using namespace std::chrono_literals;

/// Counts the datagrams delivered to it.
struct CountingClient final : net::INetworkClient {
  void on_message(const net::Message&) override { ++received; }
  std::atomic<int> received{0};
};

/// Records the cycle number of every datagram delivered to it, in
/// order. `cycles` is written on the loop thread: read it after stop().
struct RecordingClient final : net::INetworkClient {
  void on_message(const net::Message& msg) override {
    cycles.push_back(msg.cycle);
    received.fetch_add(1);
  }
  std::vector<std::uint64_t> cycles;
  std::atomic<int> received{0};
};

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// A plain UDP socket on 127.0.0.1 standing in for an external peer
/// (no UDP_GRO: it receives one datagram per recv, like
/// tools/probemon_loadgen).
class RawPeer {
 public:
  RawPeer() : fd_(socket(AF_INET, SOCK_DGRAM, 0)) {
    sockaddr_in local = loopback(0);
    bind(fd_, reinterpret_cast<sockaddr*>(&local), sizeof local);
    socklen_t len = sizeof local;
    getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
    port_ = ntohs(local.sin_port);
    timeval rcv_timeout{2, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout,
               sizeof rcv_timeout);
  }
  ~RawPeer() { close(fd_); }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Sends `bytes` as one datagram, or as a coalesced run the kernel
  /// cuts into `segment`-byte datagrams when `segment` > 0. False when
  /// the kernel refuses.
  bool send_to(std::uint16_t port, const std::vector<std::uint8_t>& bytes,
               int segment = 0) {
    // Size 0 clears the option, so a plain send follows a coalesced one.
    const bool segmented =
        setsockopt(fd_, SOL_UDP, UDP_SEGMENT, &segment, sizeof segment) == 0;
    if (segment > 0 && !segmented) return false;
    const sockaddr_in dst = loopback(port);
    return sendto(fd_, bytes.data(), bytes.size(), 0,
                  reinterpret_cast<const sockaddr*>(&dst), sizeof dst) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Receives one datagram and decodes it; false on timeout, on a
  /// datagram that is not exactly kUdpWireSize bytes, or on bad input.
  bool receive(net::Message& msg) {
    std::uint8_t wire[2 * kUdpWireSize];
    const ssize_t n = recv(fd_, wire, sizeof wire, 0);
    return n == static_cast<ssize_t>(kUdpWireSize) &&
           udp_decode(wire, kUdpWireSize, msg);
  }

  /// True when a datagram is waiting.
  bool pending() const {
    std::uint8_t byte = 0;
    return recv(fd_, &byte, 1, MSG_DONTWAIT | MSG_PEEK) >= 0;
  }

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

/// The NodeId an external peer's control point speaks as.
constexpr net::NodeId kExternalCp = 0x40000000;

/// `count` wire probes from kExternalCp to `to`, back to back, numbered
/// by cycle.
std::vector<std::uint8_t> probe_run(net::NodeId to, std::size_t count) {
  std::vector<std::uint8_t> bytes(count * kUdpWireSize);
  for (std::size_t k = 0; k < count; ++k) {
    net::Message probe;
    probe.kind = net::MessageKind::kProbe;
    probe.from = kExternalCp;
    probe.to = to;
    probe.cycle = k;
    udp_encode(probe, bytes.data() + k * kUdpWireSize);
  }
  return bytes;
}

/// Whether the kernel offers both halves of UDP segmentation offload;
/// the coalesced-input tests need a sender with UDP_SEGMENT and a
/// transport that receives runs whole.
bool kernel_offers_udp_offload() {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  const int segment = static_cast<int>(kUdpWireSize);
  const int one = 1;
  const bool ok =
      setsockopt(fd, SOL_UDP, UDP_SEGMENT, &segment, sizeof segment) == 0 &&
      setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof one) == 0;
  close(fd);
  return ok;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Tight protocol timings so tests finish in milliseconds, not the
/// paper's tens of seconds.
core::TimeoutConfig fast_timeouts() {
  core::TimeoutConfig timeouts;
  timeouts.tof = 0.020;
  timeouts.tos = 0.015;
  return timeouts;
}

core::DcppDeviceConfig fast_dcpp_device() {
  core::DcppDeviceConfig config;
  config.delta_min = 0.005;
  config.d_min = 0.02;
  return config;
}

core::DcppCpConfig fast_dcpp_cp() {
  core::DcppCpConfig config;
  config.timeouts = fast_timeouts();
  return config;
}

core::SappCpConfig fast_sapp_cp() {
  core::SappCpConfig config;
  config.timeouts = fast_timeouts();
  config.delta_min = 0.005;
  config.initial_delay = 0.01;
  return config;
}

TEST(AsyncUdpTransport, SendSideUnroutableIsCounted) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);  // loop not running: direct calls OK
  net::Message msg;
  msg.kind = net::MessageKind::kProbe;
  msg.from = 1;
  msg.to = 999;  // neither attached nor a known peer
  transport.send(msg);
  EXPECT_EQ(transport.unroutable_count(), 1u);
  // sent/delivered/send_errors/unroutable partition the datagrams:
  // an unroutable one was never handed to the kernel.
  transport.flush();
  EXPECT_EQ(transport.sent_count(), 0u);
  EXPECT_EQ(transport.send_error_count(), 0u);
}

TEST(AsyncUdpTransport, LearnsPeerFromDatagramSource) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  loop.start();

  // Pose as an external control point on a raw socket: first datagram
  // teaches the transport our port, the device's reply comes back.
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&local), sizeof local), 0);
  timeval rcv_timeout{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout, sizeof rcv_timeout);

  const net::NodeId external_cp = 0x40000000;
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = external_cp;
  probe.to = device.id();
  probe.cycle = 7;
  std::uint8_t wire[kUdpWireSize];
  udp_encode(probe, wire);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(transport.local_port());
  ASSERT_EQ(sendto(fd, wire, sizeof wire, 0,
                   reinterpret_cast<sockaddr*>(&dst), sizeof dst),
            static_cast<ssize_t>(sizeof wire));

  std::uint8_t reply_wire[kUdpWireSize + 8];
  const ssize_t n = recv(fd, reply_wire, sizeof reply_wire, 0);
  ASSERT_EQ(n, static_cast<ssize_t>(kUdpWireSize))
      << "no reply routed back to the learned peer";
  net::Message reply;
  ASSERT_TRUE(udp_decode(reply_wire, kUdpWireSize, reply));
  EXPECT_EQ(reply.kind, net::MessageKind::kReply);
  EXPECT_EQ(reply.from, device.id());
  EXPECT_EQ(reply.to, external_cp);
  EXPECT_EQ(reply.cycle, 7u);
  EXPECT_GE(reply.grant_delay, 0.0);
  EXPECT_EQ(device.probes_received(), 1u);

  close(fd);
  loop.stop();
}

TEST(AsyncUdpTransport, MalformedDatagramCountsRecvError) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  loop.start();

  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(transport.local_port());
  const char junk[5] = {1, 2, 3, 4, 5};  // wrong size: undecodable
  ASSERT_EQ(sendto(fd, junk, sizeof junk, 0,
                   reinterpret_cast<sockaddr*>(&dst), sizeof dst),
            static_cast<ssize_t>(sizeof junk));
  EXPECT_TRUE(eventually([&] { return transport.recv_error_count() == 1; }));
  EXPECT_EQ(device.probes_received(), 0u);
  close(fd);
  loop.stop();
}

TEST(AsyncUdpTransport, DetachStopsDelivery) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  CountingClient client_a, client_b;
  std::atomic<int>& received = client_b.received;
  const net::NodeId a = transport.attach(client_a);
  const net::NodeId b = transport.attach(client_b);
  net::Message msg;
  msg.kind = net::MessageKind::kProbe;
  msg.from = a;
  msg.to = b;
  transport.send(msg);
  transport.flush();  // in flight: queued on the socket, not yet read
  transport.detach(b);
  loop.start();
  // The datagram arrives after the detach: dropped, never dispatched.
  EXPECT_TRUE(eventually([&] { return transport.unroutable_count() == 1; }));
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(transport.delivered_count(), 0u);
  loop.stop();
  // A send to the detached id no longer leaves the process.
  transport.send(msg);
  EXPECT_EQ(transport.unroutable_count(), 2u);
  EXPECT_EQ(received.load(), 0);
}

TEST(AsyncUdpTransport, NoPeerIsLearnedFromItsOwnPort) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  CountingClient client;
  const net::NodeId cp = transport.attach(client);
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = cp;
  probe.to = device.id();
  transport.send(probe);
  transport.flush();     // in flight from our own port
  transport.detach(cp);  // e.g. an unwatch while the probe is in flight
  loop.start();
  // The device answers, but the detached CP's id must not have been
  // bound to our own port: the reply never leaves the process.
  EXPECT_TRUE(eventually([&] { return transport.unroutable_count() == 1; }));
  loop.stop();
  EXPECT_EQ(device.probes_received(), 1u);
  EXPECT_EQ(transport.sent_count(), 1u);
  EXPECT_EQ(transport.unroutable_count(), 1u);
  EXPECT_EQ(client.received.load(), 0);
}

TEST(AsyncUdpTransport, MixedDestinationsKeepSendOrder) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  RecordingClient local;
  const net::NodeId l = transport.attach(local);
  RawPeer external;
  const net::NodeId x = kExternalCp;
  transport.set_peer(x, external.port());
  // One flush, runs L L | X | L | X X: coalesced runs and runs of one.
  const net::NodeId order[] = {l, l, x, l, x, x};
  for (std::uint64_t k = 0; k < std::size(order); ++k) {
    net::Message msg;
    msg.kind = net::MessageKind::kProbe;
    msg.from = l;
    msg.to = order[k];
    msg.cycle = k;
    ASSERT_TRUE(transport.send(msg));
  }
  transport.flush();
  EXPECT_EQ(transport.sent_count(), 6u);
  EXPECT_EQ(transport.send_error_count(), 0u);

  // The external side has no GRO: the kernel hands it its three
  // datagrams one by one, 48 bytes each, in send order.
  std::vector<std::uint64_t> external_cycles;
  for (int i = 0; i < 3; ++i) {
    net::Message msg;
    ASSERT_TRUE(external.receive(msg)) << "datagram " << i;
    EXPECT_EQ(msg.to, x);
    external_cycles.push_back(msg.cycle);
  }
  EXPECT_EQ(external_cycles, (std::vector<std::uint64_t>{2, 4, 5}));
  EXPECT_FALSE(external.pending());

  loop.start();
  EXPECT_TRUE(eventually([&] { return local.received.load() == 3; }));
  loop.stop();
  EXPECT_EQ(local.cycles, (std::vector<std::uint64_t>{0, 1, 3}));
  EXPECT_EQ(transport.delivered_count(), 3u);
  EXPECT_EQ(transport.recv_error_count(), 0u);
}

TEST(AsyncUdpTransport, BurstFromExternalPeerGetsSeparateReplies) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  std::vector<std::unique_ptr<AsyncDcppDevice>> devices;
  for (int i = 0; i < 40; ++i) {
    devices.push_back(
        std::make_unique<AsyncDcppDevice>(transport, fast_dcpp_device()));
  }
  // All 40 probes queue before the loop runs, so one wake answers them
  // together: one run of 40 replies to the peer's port.
  RawPeer peer;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    std::vector<std::uint8_t> wire = probe_run(devices[i]->id(), 1);
    ASSERT_TRUE(peer.send_to(transport.local_port(), wire));
  }
  loop.start();
  std::set<net::NodeId> repliers;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    net::Message reply;
    ASSERT_TRUE(peer.receive(reply)) << "reply " << i;
    EXPECT_EQ(reply.kind, net::MessageKind::kReply);
    EXPECT_EQ(reply.to, kExternalCp);
    repliers.insert(reply.from);
  }
  EXPECT_EQ(repliers.size(), devices.size());
  EXPECT_FALSE(peer.pending());
  loop.stop();
  EXPECT_EQ(transport.sent_count(), devices.size());
  EXPECT_EQ(transport.send_error_count(), 0u);
}

TEST(AsyncUdpTransport, CoalescedInputIsSplitIntoDatagrams) {
  if (!kernel_offers_udp_offload()) GTEST_SKIP() << "no UDP GSO/GRO";
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  RecordingClient client;
  const net::NodeId id = transport.attach(client);
  loop.start();
  RawPeer peer;
  ASSERT_TRUE(peer.send_to(transport.local_port(), probe_run(id, 10),
                           static_cast<int>(kUdpWireSize)));
  EXPECT_TRUE(eventually([&] { return transport.delivered_count() == 10; }));
  loop.stop();
  EXPECT_EQ(client.cycles,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(transport.recv_error_count(), 0u);
}

TEST(AsyncUdpTransport, CoalescedInputWithForeignSegmentSizeIsRejected) {
  if (!kernel_offers_udp_offload()) GTEST_SKIP() << "no UDP GSO/GRO";
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  RecordingClient client;
  const net::NodeId id = transport.attach(client);
  loop.start();
  RawPeer peer;
  // 480 bytes cut at 40: twelve 40-byte segments, none a wire datagram.
  ASSERT_TRUE(peer.send_to(transport.local_port(), probe_run(id, 10), 40));
  EXPECT_TRUE(
      eventually([&] { return transport.recv_error_count() == 12; }));
  loop.stop();
  EXPECT_EQ(transport.delivered_count(), 0u);
  EXPECT_EQ(client.received.load(), 0);
}

TEST(AsyncUdpTransport, OversizedCoalescedInputIsDroppedWhole) {
  if (!kernel_offers_udp_offload()) GTEST_SKIP() << "no UDP GSO/GRO";
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  RecordingClient client;
  const net::NodeId id = transport.attach(client);
  loop.start();
  RawPeer peer;
  // 100 wire datagrams in one run: larger than a receive slot (64).
  if (!peer.send_to(transport.local_port(), probe_run(id, 100),
                    static_cast<int>(kUdpWireSize))) {
    loop.stop();
    GTEST_SKIP() << "kernel refuses 100 UDP segments";
  }
  EXPECT_TRUE(eventually([&] { return transport.recv_error_count() == 1; }));
  // The loop keeps serving: a plain datagram after it is delivered.
  std::vector<std::uint8_t> next = probe_run(id, 1);
  ASSERT_TRUE(peer.send_to(transport.local_port(), next));
  EXPECT_TRUE(eventually([&] { return transport.delivered_count() == 1; }));
  loop.stop();
  EXPECT_EQ(client.cycles, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(transport.recv_error_count(), 1u);
}

/// The recv-depth histogram's (calls, datagrams): one observation per
/// receive call that returned datagrams.
std::pair<std::uint64_t, double> receive_calls(
    const telemetry::Registry& registry) {
  for (const telemetry::Sample& s : registry.snapshot()) {
    if (s.name == "probemon_transport_recv_batch_depth") {
      return {s.count, s.sum};
    }
  }
  return {0, 0.0};
}

TEST(AsyncUdpTransport, BatchDispatchSurvivesTopologyChangesMidBatch) {
  // 64 datagrams to 8 local clients, queued in one flush before the
  // loop runs, arrive as one receive batch. The first handler detaches
  // client 5 and attaches enough clients to reallocate the client
  // table while the pipeline holds decoded datagrams and prefetches
  // ahead of it. Dispatch reads the table afresh, so client 5's later
  // datagrams are unroutable and every other one is delivered in order.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  telemetry::Registry registry;
  transport.instrument(registry);

  /// Appends each delivery's cycle to one shared log; `first` runs once.
  struct LoggingClient final : net::INetworkClient {
    void on_message(const net::Message& msg) override {
      log->push_back(msg.cycle);
      if (first) std::exchange(first, nullptr)();
    }
    std::vector<std::uint64_t>* log = nullptr;
    std::function<void()> first;
  };
  std::vector<std::uint64_t> log;
  std::array<LoggingClient, 8> clients;
  std::array<net::NodeId, 8> ids{};
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c].log = &log;
    ids[c] = transport.attach(clients[c]);
  }
  std::vector<std::unique_ptr<CountingClient>> joined;
  clients[0].first = [&] {
    transport.detach(ids[5]);
    for (int k = 0; k < 1024; ++k) {
      joined.push_back(std::make_unique<CountingClient>());
      transport.attach(*joined.back());
    }
  };
  std::vector<std::uint64_t> expected;
  for (std::uint64_t k = 0; k < 64; ++k) {
    net::Message msg;
    msg.kind = net::MessageKind::kProbe;
    msg.from = ids[(k + 1) % 8];
    msg.to = ids[k % 8];
    msg.cycle = k;
    ASSERT_TRUE(transport.send(msg));
    if (k % 8 != 5) expected.push_back(k);
  }
  transport.flush();
  ASSERT_EQ(transport.sent_count(), 64u);
  loop.start();
  EXPECT_TRUE(eventually([&] {
    return transport.delivered_count() + transport.unroutable_count() == 64;
  }));
  loop.stop();
  EXPECT_EQ(receive_calls(registry), (std::pair<std::uint64_t, double>{1, 64}))
      << "the 64 datagrams did not arrive as one receive batch";
  EXPECT_EQ(log, expected);
  EXPECT_EQ(transport.delivered_count(), 56u);
  EXPECT_EQ(transport.unroutable_count(), 8u);
  EXPECT_EQ(transport.recv_error_count(), 0u);
  for (const auto& client : joined) EXPECT_EQ(client->received.load(), 0);
}

TEST(AsyncUdpTransport, MalformedDatagramIsCountedWhereItFallsInABatch) {
  // A batch with a short datagram and a 48-byte one with an unknown
  // kind among good probes: the pipeline decodes ahead of dispatch, but
  // each bad datagram is counted at its own place in arrival order.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  telemetry::Registry registry;
  transport.instrument(registry);
  struct ErrorReadingClient final : net::INetworkClient {
    void on_message(const net::Message&) override {
      errors_seen.push_back(transport->recv_error_count());
    }
    AsyncUdpTransport* transport = nullptr;
    std::vector<std::uint64_t> errors_seen;
  } client;
  client.transport = &transport;
  const net::NodeId id = transport.attach(client);

  RawPeer peer;
  const std::vector<std::uint8_t> probe = probe_run(id, 1);
  const std::vector<std::uint8_t> short_junk = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> bad_kind = probe;
  bad_kind[0] = 0xff;
  const std::vector<const std::vector<std::uint8_t>*> order = {
      &probe, &probe, &probe, &short_junk, &probe, &probe, &bad_kind, &probe};
  for (const auto* datagram : order) {
    ASSERT_TRUE(peer.send_to(transport.local_port(), *datagram));
  }
  loop.start();
  EXPECT_TRUE(eventually([&] { return transport.recv_error_count() == 2; }));
  loop.stop();
  EXPECT_EQ(receive_calls(registry),
            (std::pair<std::uint64_t, double>{1, 8}))
      << "the 8 datagrams did not arrive as one receive batch";
  EXPECT_EQ(client.errors_seen,
            (std::vector<std::uint64_t>{0, 0, 0, 1, 1, 2}));
  EXPECT_EQ(transport.delivered_count(), 6u);
}

TEST(EventLoop, HandlersOfOneReceiveBatchShareOneInstant) {
  // A receive batch is one unit: one clock read when recvmmsg() returns
  // is every handler's now(). Everywhere else -- another thread while
  // the batch runs, a posted task, a timer callback, a flush hook -- a
  // read is live.
  constexpr double kDelay = 0.005;
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  telemetry::Registry registry;
  transport.instrument(registry);

  /// Stamps every delivery with now(); the first delivery runs `first`.
  struct StampingClient final : net::INetworkClient {
    void on_message(const net::Message&) override {
      stamps.push_back(loop->now());
      if (first) std::exchange(first, nullptr)();
    }
    EventLoop* loop = nullptr;
    std::vector<double> stamps;
    std::function<void()> first;
  } client;
  client.loop = &loop;
  const net::NodeId id = transport.attach(client);

  /// Two reads of now() 1 ms of real time apart: (first, advanced).
  const auto read_twice = [&loop] {
    const double first = loop.now();
    std::this_thread::sleep_for(1ms);
    return std::pair<double, bool>{first, loop.now() > first};
  };
  std::atomic<bool> in_batch{false};
  std::atomic<bool> observed{false};
  std::atomic<int> done{0};
  double instant = 0;
  bool frozen = false;
  std::pair<double, bool> timer_read{}, task_read{}, flush_read{};
  bool flush_armed = false;
  const std::uint64_t hook = loop.add_flush_hook([&] {
    if (!std::exchange(flush_armed, false)) return;
    flush_read = read_twice();
    done.fetch_add(1);
  });
  client.first = [&] {
    instant = loop.now();
    std::this_thread::sleep_for(2ms);
    frozen = loop.now() == instant;
    in_batch.store(true);
    // The main thread reads the clock while this batch is dispatched.
    eventually([&] { return observed.load(); });
    loop.schedule_after(kDelay, [&] {
      timer_read = read_twice();
      done.fetch_add(1);
    });
    loop.post([&] {
      task_read = read_twice();
      done.fetch_add(1);
    });
    flush_armed = true;
  };
  const auto send_probes = [&](std::uint64_t first_cycle, int count) {
    for (int k = 0; k < count; ++k) {
      net::Message msg;
      msg.kind = net::MessageKind::kProbe;
      msg.from = id;
      msg.to = id;
      msg.cycle = first_cycle + static_cast<std::uint64_t>(k);
      transport.send(msg);
    }
    transport.flush();
  };
  send_probes(0, 16);  // queued before the loop runs: one receive batch
  loop.start();
  ASSERT_TRUE(eventually([&] { return in_batch.load(); }));
  const auto other_thread = read_twice();
  observed.store(true);
  EXPECT_TRUE(eventually([&] {
    return transport.delivered_count() == 16 && done.load() == 3;
  }));
  // A later batch, sent from the loop thread.
  loop.post([&] { send_probes(16, 8); });
  EXPECT_TRUE(eventually([&] { return transport.delivered_count() == 24; }));
  loop.stop();
  loop.remove_flush_hook(hook);

  ASSERT_EQ(client.stamps.size(), 24u);
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(client.stamps[k], instant) << "datagram " << k;
  }
  EXPECT_TRUE(frozen) << "now() moved inside one batch's handler";
  EXPECT_GT(other_thread.first, instant);
  EXPECT_TRUE(other_thread.second) << "another thread read a frozen clock";
  EXPECT_GE(timer_read.first, instant + kDelay);
  EXPECT_TRUE(timer_read.second) << "a timer callback read a frozen clock";
  EXPECT_GT(task_read.first, instant);
  EXPECT_TRUE(task_read.second) << "a posted task read a frozen clock";
  EXPECT_GT(flush_read.first, instant);
  EXPECT_TRUE(flush_read.second) << "a flush hook read a frozen clock";
  // The later batch reads a later instant, and each receive call reads
  // the clock once: as many distinct stamps as calls.
  for (std::size_t k = 16; k < 24; ++k) {
    EXPECT_GT(client.stamps[k], instant) << "datagram " << k;
  }
  EXPECT_TRUE(std::is_sorted(client.stamps.begin(), client.stamps.end()));
  const std::set<double> distinct(client.stamps.begin(), client.stamps.end());
  EXPECT_EQ(distinct.size(), receive_calls(registry).first);
}

TEST(AsyncRuntime, DcppCyclesSucceedOverRealUdp) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> successes{0};
  std::atomic<double> last_delay{-1.0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (info.success) {
      ++successes;
      last_delay.store(info.next_delay);
      EXPECT_GE(info.rtt, 0.0);
      EXPECT_LE(info.start, info.end);
      EXPECT_EQ(info.attempts, 1);  // loopback: no retransmissions
    }
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return successes.load() >= 3; }));
  loop.stop();  // the CP's accessors are loop-confined
  EXPECT_TRUE(cp.device_considered_present());
  EXPECT_GE(cp.cycles_succeeded(), 3u);
  EXPECT_EQ(cp.cycles_failed(), 0u);
  // DCPP delay is the device's grant: bounded by [0, d_min].
  EXPECT_GE(last_delay.load(), 0.0);
  EXPECT_LE(last_delay.load(), fast_dcpp_device().d_min + 1e-9);
  EXPECT_GE(device.probes_received(), cp.cycles_succeeded());
}

TEST(AsyncRuntime, SappCycleObservesProbeCounter) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::SappDeviceConfig device_config;
  AsyncSappDevice device(transport, device_config);
  std::atomic<int> successes{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle =
      [&successes](const AsyncControlPointBase::CycleInfo& info) {
        if (info.success) ++successes;
      };
  AsyncSappControlPoint cp(transport, device.id(), fast_sapp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return successes.load() >= 2; }));
  loop.stop();  // the CP's accessors are loop-confined
  // Every probe bumps pc by Delta = l_ideal / l_nom.
  EXPECT_GT(device.probes_received(), 0u);
  EXPECT_EQ(device.probe_counter(),
            device_config.delta() * device.probes_received());
  // The adaptive delay stays within the configured band.
  EXPECT_GE(cp.delta(), fast_sapp_cp().delta_min - 1e-9);
  EXPECT_LE(cp.delta(), fast_sapp_cp().delta_max + 1e-9);
}

TEST(AsyncRuntime, SilentDeviceDeclaredAbsentAndMonitoringStops) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> absences{0};
  std::atomic<double> absent_at{-1.0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (info.success) return;
    absent_at.store(info.end);
    ++absences;
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);

  device.go_silent();
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return absences.load() == 1; }));
  std::this_thread::sleep_for(100ms);  // room for any further probe
  loop.stop();  // the CP's accessors are loop-confined
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_EQ(cp.cycles_failed(), 1u);
  EXPECT_EQ(cp.cycles_succeeded(), 0u);
  // First probe + max_retransmissions retries, then silence: monitoring
  // stops on absence.
  EXPECT_EQ(cp.probes_sent(), 1u + fast_timeouts().max_retransmissions);
  EXPECT_EQ(absences.load(), 1);
  // Detection takes at least TOF + R*TOS of wall time.
  EXPECT_GE(absent_at.load(),
            fast_timeouts().tof +
                fast_timeouts().max_retransmissions * fast_timeouts().tos -
                1e-3);
}

TEST(AsyncRuntime, StaleRepliesFromOlderCyclesAreIgnored) {
  // A device that comes back mid-retransmission must not resurrect an
  // older cycle: drive the CP against a device that goes silent for
  // one full cycle, then answers again — counters must stay coherent.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> completed{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&completed](const AsyncControlPointBase::CycleInfo&) {
    ++completed;
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();
  EXPECT_TRUE(eventually([&] { return completed.load() >= 2; }));
  device.go_silent();
  std::this_thread::sleep_for(30ms);  // at least one retransmission
  device.come_back();
  EXPECT_TRUE(eventually([&] { return completed.load() >= 5; }));
  loop.stop();  // the CP's accessors are loop-confined
  EXPECT_TRUE(cp.device_considered_present());
  EXPECT_EQ(cp.cycles_failed(), 0u);
}

TEST(AsyncRuntime, RetransmissionMeasuresRttFromTheLastSend) {
  // The device misses the first probe and is back before the TOF
  // timeout: the cycle succeeds on its retransmission, so its rtt runs
  // from the second send, not from the cycle start.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> completed{0};
  // Written on the loop thread; read after loop.stop() joined it.
  AsyncControlPointBase::CycleInfo first;
  telemetry::ProbeCycleTracer tracer;
  telemetry::CycleTraceObserver trace_observer(tracer);
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.observer = &trace_observer;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (completed.load() == 0) first = info;
    ++completed;
  };
  // A generous TOS, so a stalled loop cannot time out the answered
  // retransmission and turn this into a three-attempt cycle.
  core::DcppCpConfig cp_config = fast_dcpp_cp();
  cp_config.timeouts.tos = 0.5;
  AsyncDcppControlPoint cp(transport, device.id(), cp_config, callbacks);

  device.go_silent();
  loop.post([&] {
    cp.start();
    // Half a TOF after the first send: the loop's clock counts from
    // now(), where the wheel's own schedule_after counts from its last
    // poll, which may already be more than that in the past.
    loop.schedule_after(cp_config.timeouts.tof / 2,
                        [&device] { device.come_back(); });
  });
  loop.start();
  EXPECT_TRUE(eventually([&] { return completed.load() >= 1; }));
  loop.stop();

  ASSERT_GE(tracer.recorded(), 1u);
  const telemetry::ProbeCycleTrace first_trace = tracer.snapshot().front();
  EXPECT_TRUE(first.success);
  EXPECT_EQ(first.attempts, 2);
  ASSERT_EQ(first_trace.sends.size(), 2u);
  EXPECT_EQ(first_trace.attempts, 2);
  EXPECT_EQ(first_trace.sends[0], first.start);
  // The retransmission waited out the TOF timeout.
  EXPECT_GE(first_trace.sends[1] - first_trace.sends[0],
            cp_config.timeouts.tof - 1e-3);
  EXPECT_DOUBLE_EQ(first.rtt, first.end - first_trace.sends[1]);
  EXPECT_DOUBLE_EQ(first_trace.rtt, first.rtt);
  EXPECT_LT(first.rtt, first.end - first.start);
  EXPECT_EQ(cp.cycles_failed(), 0u);
}

TEST(AsyncRuntime, NonFiniteGrantIsRejectedAtTheWire) {
  // A responder answers every probe with grant_delay = +inf. No timer
  // can be armed that far, so the codec rejects the datagram: the loop
  // survives, counts each reply as a receive error, and the CP sees
  // silence and declares the device absent.
  struct InfiniteGrantResponder final : net::INetworkClient {
    explicit InfiniteGrantResponder(AsyncUdpTransport& t)
        : transport(t), id(t.attach(*this)) {}
    ~InfiniteGrantResponder() override { transport.detach(id); }
    void on_message(const net::Message& probe) override {
      net::Message reply;
      reply.kind = net::MessageKind::kReply;
      reply.from = id;
      reply.to = probe.from;
      reply.cycle = probe.cycle;
      reply.attempt = probe.attempt;
      reply.grant_delay = std::numeric_limits<double>::infinity();
      transport.send(reply);
    }
    AsyncUdpTransport& transport;
    net::NodeId id;
  };
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  InfiniteGrantResponder responder(transport);
  std::atomic<int> absences{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (!info.success) ++absences;
  };
  AsyncDcppControlPoint cp(transport, responder.id, fast_dcpp_cp(), callbacks);
  cp.start();
  loop.start();
  EXPECT_TRUE(eventually([&] { return absences.load() == 1; }));
  loop.stop();
  EXPECT_GE(transport.recv_error_count(), 1u);
  EXPECT_EQ(cp.probes_sent(), 1u + fast_timeouts().max_retransmissions);
  EXPECT_EQ(cp.cycles_succeeded(), 0u);
  EXPECT_FALSE(cp.device_considered_present());
}

TEST(AsyncRuntime, MultipleCpsShareDeviceFairly) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::vector<std::unique_ptr<AsyncDcppControlPoint>> cps;
  for (int i = 0; i < 4; ++i) {
    cps.push_back(std::make_unique<AsyncDcppControlPoint>(
        transport, device.id(), fast_dcpp_cp()));
    cps.back()->start();
  }
  loop.start();
  std::this_thread::sleep_for(600ms);
  loop.stop();

  std::uint64_t min_cycles = UINT64_MAX, max_cycles = 0;
  for (const auto& cp : cps) {
    min_cycles = std::min(min_cycles, cp->cycles_succeeded());
    max_cycles = std::max(max_cycles, cp->cycles_succeeded());
  }
  EXPECT_GT(min_cycles, 5u);
  // Fair sharing: no CP gets more than ~2x another.
  EXPECT_LT(max_cycles, 2 * min_cycles + 5);
}

TEST(AsyncRuntime, RepliesCarryTheLastProbersIntoTheOverlay) {
  // The device piggybacks its last two distinct probers on every reply,
  // so a second CP watching it learns the first one over real UDP.
  struct SuccessCounter final : core::ProtocolObserver {
    void on_cycle_success(net::NodeId, net::NodeId, double,
                          std::uint8_t) override {
      ++successes;
    }
    std::atomic<int> successes{0};
  } counter;
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  core::DcppControlPoint first(loop, transport, transport.arena(),
                               device.id(), fast_dcpp_cp());
  core::DcppControlPoint second(loop, transport, transport.arena(),
                                device.id(), fast_dcpp_cp(), &counter);
  first.start();
  second.start(0.01);
  loop.start();
  EXPECT_TRUE(eventually([&] { return counter.successes.load() >= 3; }));
  loop.stop();  // the overlay is loop-confined
  const auto overlay = second.overlay_neighbors();
  EXPECT_NE(std::find(overlay.begin(), overlay.end(), first.id()),
            overlay.end());
  EXPECT_EQ(std::find(overlay.begin(), overlay.end(), second.id()),
            overlay.end());
  const auto& probers = device.last_probers();
  EXPECT_TRUE((probers[0] == first.id() && probers[1] == second.id()) ||
              (probers[0] == second.id() && probers[1] == first.id()));
}

/// Counts how each watch of a device ended.
struct AbsenceSpy final : core::ProtocolObserver {
  void on_device_declared_absent(net::NodeId, net::NodeId, double) override {
    ++declared;
  }
  void on_absence_learned(net::NodeId, net::NodeId, double) override {
    ++learned;
  }
  std::atomic<int> declared{0};
  std::atomic<int> learned{0};
};

TEST(AsyncRuntime, LeaveGracefullyEndsTheWatchWithBye) {
  // A graceful leave sends bye to the device's last probers: the watch
  // learns the absence at once instead of timing out TOF + R * TOS.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AbsenceSpy spy;
  std::atomic<int> successes{0};
  std::atomic<int> failures{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.observer = &spy;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    ++(info.success ? successes : failures);
  };
  // A long TOS: a timeout could not end the cycle within the test.
  core::DcppCpConfig cp_config = fast_dcpp_cp();
  cp_config.timeouts.tof = 5.0;
  cp_config.timeouts.tos = 5.0;
  AsyncDcppControlPoint cp(transport, device.id(), cp_config, callbacks);
  cp.start();
  loop.start();
  ASSERT_TRUE(eventually([&] { return successes.load() >= 2; }));
  loop.post([&device] { device.leave_gracefully(); });
  EXPECT_TRUE(eventually([&] { return spy.learned.load() == 1; }));
  loop.stop();
  EXPECT_EQ(spy.declared.load(), 0);
  EXPECT_EQ(failures.load(), 1);  // the learned absence ends the watch
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_FALSE(device.present());
  EXPECT_EQ(cp.cycles_failed(), 0u);  // no cycle exhausted its probes
}

TEST(AsyncRuntime, AdaptiveDeltaSaturatesOverUdp) {
  // The SAPP overload extension on the reactor: a fixed-rate prober far
  // above L_nom keeps the device overloaded, so Delta doubles at every
  // evaluation until it stops at the ceiling.
  struct DeltaSpy final : core::ProtocolObserver {
    void on_delta_changed(net::NodeId, double, std::uint64_t delta) override {
      deltas.push_back(delta);  // loop thread; read after stop()
      last.store(delta);
    }
    std::vector<std::uint64_t> deltas;
    std::atomic<std::uint64_t> last{0};
  } spy;
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::SappDeviceConfig device_config;  // L_nom = 10
  device_config.adaptive_delta = true;
  device_config.adapt_period = 0.01;
  device_config.adapt_window = 0.05;
  AsyncSappDevice device(transport, device_config, &spy);
  core::FixedRateCpConfig cp_config;
  cp_config.period = 0.002;  // ~500 probes/s
  // Loopback loses nothing: generous timeouts keep a stalled loop from
  // ending the prober with a false absence.
  cp_config.timeouts.tof = 1.0;
  cp_config.timeouts.tos = 1.0;
  core::FixedRateControlPoint cp(loop, transport, transport.arena(),
                                 device.id(), cp_config);
  cp.start();
  loop.start();
  constexpr std::uint64_t kCeiling = AsyncSappDevice::kDeltaCeiling;
  EXPECT_TRUE(eventually([&] { return spy.last.load() == kCeiling; }));
  std::this_thread::sleep_for(50ms);  // more evaluations at the ceiling
  loop.stop();
  ASSERT_FALSE(spy.deltas.empty());
  std::uint64_t previous = device_config.delta();
  for (std::uint64_t delta : spy.deltas) {
    EXPECT_GE(delta, previous) << "Delta fell while overloaded";
    previous = delta;
  }
  EXPECT_EQ(spy.deltas.back(), kCeiling);
  EXPECT_EQ(device.delta(), kCeiling);
}

TEST(AsyncPresence, WatchUnwatchLifecycle) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());

  telemetry::Registry registry;
  AsyncPresenceService::TelemetryOptions telemetry_options;
  telemetry_options.registry = &registry;
  AsyncPresenceService service(transport, telemetry_options);

  std::atomic<int> events{0};
  std::atomic<int> present_events{0};
  service.subscribe([&](const PresenceEvent& event) {
    ++events;
    if (event.state == Presence::kPresent) ++present_events;
  });

  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());  // off-loop: posts
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
  EXPECT_EQ(service.watch_count(), 1u);
  EXPECT_GE(present_events.load(), 1);

  const auto watches = service.snapshotWatches();
  ASSERT_EQ(watches.size(), 1u);
  EXPECT_EQ(watches[0].device, device.id());
  EXPECT_EQ(watches[0].state, Presence::kPresent);
  EXPECT_GT(watches[0].cycles_succeeded, 0u);
  EXPECT_GT(watches[0].probes_sent, 0u);
  EXPECT_GT(watches[0].next_probe_due, 0.0);

  const auto stats = service.stats();
  EXPECT_GT(stats.probes_sent, 0u);
  EXPECT_GT(stats.cycles_succeeded, 0u);

  // The p99 source must be populated by successful cycles.
  ASSERT_NE(service.reply_latency(), nullptr);
  EXPECT_GT(service.reply_latency()->count(), 0u);

  service.unwatch(device.id());
  EXPECT_TRUE(eventually([&] { return service.watch_count() == 0; }));
  EXPECT_EQ(service.presence(device.id()), Presence::kUnknown);
  loop.stop();
}

TEST(AsyncPresence, AbsenceTransitionReported) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);

  std::atomic<int> absent_events{0};
  service.subscribe([&](const PresenceEvent& event) {
    if (event.state == Presence::kAbsent) ++absent_events;
  });
  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));

  device.go_silent();
  EXPECT_TRUE(eventually([&] { return absent_events.load() == 1; }));
  EXPECT_EQ(service.presence(device.id()), Presence::kAbsent);
  EXPECT_GE(service.stats().cycles_failed, 1u);
  loop.stop();
}

TEST(AsyncPresence, TwoHundredEndpointSmoke) {
  // The scale shape of bench_rt_scale in miniature: one loop thread,
  // one socket, 200 devices + 200 control points, everyone present.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  constexpr int kEndpoints = 200;
  std::vector<std::unique_ptr<AsyncDcppDevice>> devices;
  devices.reserve(kEndpoints);
  for (int i = 0; i < kEndpoints; ++i) {
    devices.push_back(
        std::make_unique<AsyncDcppDevice>(transport, fast_dcpp_device()));
  }
  telemetry::Registry registry;
  AsyncPresenceService::TelemetryOptions telemetry_options;
  telemetry_options.registry = &registry;
  AsyncPresenceService service(transport, telemetry_options);

  // Watch the whole fleet before starting the loop (direct path), with
  // start jitter spreading first probes across one d_min.
  for (int i = 0; i < kEndpoints; ++i) {
    service.watch_dcpp(devices[static_cast<std::size_t>(i)]->id(),
                       fast_dcpp_cp(),
                       0.02 * i / kEndpoints);
  }
  EXPECT_EQ(service.watch_count(), static_cast<std::size_t>(kEndpoints));
  loop.start();

  auto present_count = [&service] {
    std::size_t present = 0;
    for (const auto& info : service.snapshotWatches()) {
      if (info.state == Presence::kPresent) ++present;
    }
    return present;
  };
  EXPECT_TRUE(eventually(
      [&] { return present_count() == static_cast<std::size_t>(kEndpoints); },
      5000ms));
  EXPECT_GE(service.stats().cycles_succeeded,
            static_cast<std::uint64_t>(kEndpoints));
  EXPECT_EQ(transport.recv_error_count(), 0u);
  EXPECT_EQ(transport.unroutable_count(), 0u);
  loop.stop();
}

TEST(AsyncPresence, WatchIsIdempotentAndUnwatchForgets) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  loop.start();
  // Both off-loop watches post; the second finds the first and drops.
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
  EXPECT_EQ(service.watch_count(), 1u);
  service.unwatch(device.id());
  EXPECT_EQ(service.watch_count(), 0u);
  EXPECT_EQ(service.presence(device.id()), Presence::kUnknown);
  service.unwatch(device.id());  // no-op
  loop.stop();
}

TEST(AsyncPresence, WatchesManyDevicesIndependently) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  std::vector<std::unique_ptr<AsyncDcppDevice>> devices;
  for (int i = 0; i < 5; ++i) {
    devices.push_back(
        std::make_unique<AsyncDcppDevice>(transport, fast_dcpp_device()));
  }
  AsyncPresenceService service(transport);
  for (const auto& d : devices) service.watch_dcpp(d->id(), fast_dcpp_cp());
  EXPECT_EQ(service.watch_count(), 5u);
  loop.start();
  EXPECT_TRUE(eventually([&] {
    for (const auto& d : devices) {
      if (!service.present(d->id())) return false;
    }
    return true;
  }));
  devices[2]->go_silent();
  EXPECT_TRUE(eventually([&] {
    return service.presence(devices[2]->id()) == Presence::kAbsent;
  }));
  std::size_t present = 0, absent = 0;
  for (const auto& entry : service.snapshot()) {
    if (entry.state == Presence::kPresent) ++present;
    if (entry.state == Presence::kAbsent) ++absent;
  }
  EXPECT_EQ(present, 4u);
  EXPECT_EQ(absent, 1u);
  loop.stop();
}

TEST(AsyncPresence, SappWatchWorksToo) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncSappDevice device(transport, core::SappDeviceConfig{});
  AsyncPresenceService service(transport);
  loop.start();
  service.watch_sapp(device.id(), fast_sapp_cp());
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
  EXPECT_GT(service.stats().cycles_succeeded, 0u);
  loop.stop();
}

TEST(AsyncPresence, UnsubscribeStopsEvents) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  std::atomic<int> events{0};
  std::atomic<int> witnessed{0};
  const auto token =
      service.subscribe([&](const PresenceEvent&) { ++events; });
  service.subscribe([&](const PresenceEvent&) { ++witnessed; });
  service.unsubscribe(token);
  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  // The still-subscribed witness proves the transition was published.
  EXPECT_TRUE(eventually([&] { return witnessed.load() == 1; }));
  EXPECT_EQ(events.load(), 0);
  loop.stop();
}

TEST(AsyncPresence, UnwatchFromSubscriberStopsProbing) {
  // A subscriber that unwatches on the first presence event runs inside
  // the CP's own success path, before the CP would arm its next cycle:
  // the stopped CP must arm nothing (its destruction waits for the
  // service's next step, so a timer left behind would fire into freed
  // memory).
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  service.subscribe([&](const PresenceEvent& event) {
    if (event.state == Presence::kPresent) service.unwatch(event.device);
  });
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  loop.start();
  EXPECT_TRUE(eventually([&] { return service.watch_count() == 0; }));
  std::this_thread::sleep_for(20ms);  // let in-flight datagrams land
  const auto received = device.probes_received();
  std::this_thread::sleep_for(100ms);  // several d_min grants
  EXPECT_EQ(device.probes_received(), received) << "probing must stop";
  EXPECT_EQ(received, 1u);
  loop.stop();
}

/// The graceful-leave script's watch: TOF = TOS = 5 s, so only the bye
/// can end it within the test.
core::DcppCpConfig leave_cp() {
  core::DcppCpConfig config = fast_dcpp_cp();
  config.timeouts.tof = 5.0;
  config.timeouts.tos = 5.0;
  return config;
}

/// A bye is a verdict, not a failed cycle: the service publishes and
/// counts the absent transition, books no failed cycle and no detection
/// sample, and leaves the row's failure counts as the last completed
/// cycle set them.
void expect_leave_is_a_verdict_only(const AsyncPresenceService& service,
                                    net::NodeId device,
                                    telemetry::Registry& registry,
                                    int absent_events) {
  EXPECT_EQ(absent_events, 1);
  EXPECT_EQ(service.presence(device), Presence::kAbsent);
  EXPECT_EQ(service.stats().cycles_failed, 0u);
  const auto rows = service.snapshotWatches();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0].cycles_succeeded, 3u);
  EXPECT_EQ(rows[0].cycles_failed, 0u);
  EXPECT_EQ(rows[0].consecutive_failures, 0u);
  EXPECT_EQ(rows[0].next_probe_due, 0.0);  // probing stopped
  EXPECT_EQ(registry
                .counter("probemon_watch_cycles_total", "",
                         {{"result", "failure"}})
                .value(),
            0u);
  EXPECT_EQ(registry
                .counter("probemon_presence_transitions_total", "",
                         {{"state", "absent"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .histogram("probemon_detection_latency_seconds",
                           telemetry::Histogram::exponential_buckets(
                               0.01, 2.0, 11))
                .count(),
            0u);
}

TEST(AsyncPresence, GracefulLeaveIsNotAFailedCycle) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  telemetry::Registry registry;
  AsyncPresenceService service(transport, {.registry = &registry});
  std::atomic<int> absent{0};
  service.subscribe([&](const PresenceEvent& event) {
    if (event.state == Presence::kAbsent) ++absent;
  });
  service.watch_dcpp(device.id(), leave_cp());
  loop.start();
  ASSERT_TRUE(
      eventually([&] { return service.stats().cycles_succeeded >= 3; }));
  loop.post([&device] { device.leave_gracefully(); });
  EXPECT_TRUE(eventually([&] { return absent.load() == 1; }));
  loop.stop();
  expect_leave_is_a_verdict_only(service, device.id(), registry,
                                 absent.load());
}

TEST(AsyncPresence, GracefulLeaveIsNotAFailedCycleOnTheTwin) {
  // The same script on the service's deterministic twin.
  des::Simulation sim(1);
  net::Network network(sim.scheduler(), sim.rng(), net::NetworkConfig{},
                       net::make_constant_delay(0.0005), net::make_no_loss());
  core::EntityArena arena;
  core::DcppDevice device(sim, network, arena, fast_dcpp_device());
  telemetry::Registry registry;
  AsyncPresenceService service(sim, network, arena, {.registry = &registry});
  int absent = 0;
  service.subscribe([&](const PresenceEvent& event) {
    if (event.state == Presence::kAbsent) ++absent;
  });
  service.watch_dcpp(device.id(), leave_cp());
  sim.run_until(0.05);  // one d_min = 20 ms grant per cycle
  ASSERT_GE(service.stats().cycles_succeeded, 3u);
  device.leave_gracefully();
  sim.run_until(sim.now() + 1.0);
  expect_leave_is_a_verdict_only(service, device.id(), registry, absent);
}

TEST(AsyncPresence, SnapshotWatchesReportsLiveCycleState) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice a(transport, fast_dcpp_device());
  AsyncDcppDevice b(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  EXPECT_TRUE(service.snapshotWatches().empty());
  // A subscriber reading the table when the absence is announced must
  // see the failed cycle's bookkeeping already in place.
  std::atomic<int> failures_at_absent_event{-1};
  service.subscribe([&](const PresenceEvent& event) {
    if (event.state != Presence::kAbsent) return;
    for (const auto& w : service.snapshotWatches()) {
      if (w.device == event.device) {
        failures_at_absent_event.store(
            static_cast<int>(w.consecutive_failures));
      }
    }
  });
  service.watch_dcpp(a.id(), fast_dcpp_cp());
  service.watch_dcpp(b.id(), fast_dcpp_cp());
  loop.start();
  EXPECT_TRUE(
      eventually([&] { return service.stats().cycles_succeeded > 10; }));

  auto watches = service.snapshotWatches();
  ASSERT_EQ(watches.size(), 2u);
  // Sorted by device id for stable display.
  EXPECT_LT(watches[0].device, watches[1].device);
  for (const auto& w : watches) {
    EXPECT_EQ(w.state, Presence::kPresent);
    EXPECT_GT(w.probes_sent, 0u);
    EXPECT_GT(w.cycles_succeeded, 0u);
    EXPECT_EQ(w.cycles_failed, 0u);
    EXPECT_GT(w.last_rtt, 0.0);             // replies carry a real latency
    EXPECT_EQ(w.consecutive_failures, 0u);  // no loss on loopback
    EXPECT_GT(w.next_probe_due, 0.0);
  }

  // Kill one device: its row flips to absent with the failed cycle's
  // attempt count; the other keeps running. Every scrape that shows
  // the absence must show the count with it (max_retransmissions = 3
  // by default: the failed cycle sent 4 probes).
  b.go_silent();
  bool saw_absent = false;
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (!saw_absent && std::chrono::steady_clock::now() < deadline) {
    for (const auto& w : service.snapshotWatches()) {
      if (w.device != b.id() || w.state != Presence::kAbsent) continue;
      saw_absent = true;
      EXPECT_EQ(w.consecutive_failures, 4u);
      EXPECT_EQ(w.cycles_failed, 1u);
      EXPECT_EQ(w.next_probe_due, 0.0);  // probing stopped
    }
  }
  ASSERT_TRUE(saw_absent);
  EXPECT_TRUE(eventually([&] { return failures_at_absent_event.load() >= 0; }));
  EXPECT_EQ(failures_at_absent_event.load(), 4);
  EXPECT_EQ(service.presence(a.id()), Presence::kPresent);
  EXPECT_EQ(service.stats().cycles_failed, 1u);
  loop.stop();
}

TEST(AsyncPresence, StatsAggregateAcrossWatches) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice a(transport, fast_dcpp_device());
  AsyncDcppDevice b(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  service.watch_dcpp(a.id(), fast_dcpp_cp());
  service.watch_dcpp(b.id(), fast_dcpp_cp());
  loop.start();
  EXPECT_TRUE(
      eventually([&] { return service.stats().cycles_succeeded > 10; }));
  // The service totals are the sums of the per-watch rows.
  const auto stats = service.stats();
  EXPECT_GT(stats.probes_sent, 10u);
  EXPECT_GT(stats.cycles_succeeded, 10u);
  EXPECT_EQ(stats.cycles_failed, 0u);
  std::uint64_t probes = 0, succeeded = 0;
  for (const auto& w : service.snapshotWatches()) {
    probes += w.probes_sent;
    succeeded += w.cycles_succeeded;
  }
  // Both watches keep probing between the two reads, so the rows can
  // only be ahead of the earlier totals.
  EXPECT_GE(probes, stats.probes_sent);
  EXPECT_GE(succeeded, stats.cycles_succeeded);
  loop.stop();
}

TEST(AsyncPresence, DestructorJoinsCleanly) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  loop.start();
  {
    AsyncPresenceService service(transport);
    service.watch_dcpp(device.id(), fast_dcpp_cp());
    EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
    // Destroyed while the loop runs and its CP is mid-flight: must not
    // hang, race, or leave a callback pointing at the dead service.
  }
  std::this_thread::sleep_for(20ms);  // let in-flight probes land
  const auto received = device.probes_received();
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(device.probes_received(), received) << "probing must stop";
  loop.stop();
}

TEST(AsyncPresence, OffLoopUnwatchRacesCompletingCycles) {
  // Each watch's cycle callback holds its row of the table. A second
  // thread watches a device and unwatches it 0-1 ms later, while the
  // watch's first cycle completes and other watches' cycles complete
  // every few ms: an unwatched row is neither updated nor published,
  // and it lives until its control point has stopped, so once
  // unwatch() returns no event for that device may arrive (and
  // ASan/TSan see no stale row). The subscriber lingers on churned
  // devices' events, so an unwatch that returned without waiting for
  // the loop would be seen.
  constexpr std::size_t kSteady = 4;  // watched throughout
  constexpr std::size_t kDevices = 8;
  constexpr int kOperations = 200;
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.0005;
  device_config.d_min = 0.002;
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  std::vector<std::unique_ptr<AsyncDcppDevice>> devices;
  std::array<std::atomic<bool>, kDevices> unwatched{};
  std::unordered_map<net::NodeId, std::size_t> index;
  for (std::size_t i = 0; i < kDevices; ++i) {
    devices.push_back(std::make_unique<AsyncDcppDevice>(transport,
                                                        device_config));
    index[devices.back()->id()] = i;
    unwatched[i] = true;
  }
  AsyncPresenceService service(transport);
  std::atomic<int> churn_events{0};
  std::atomic<int> late_events{0};
  service.subscribe([&](const PresenceEvent& event) {
    const std::size_t i = index.at(event.device);
    if (i < kSteady) return;
    ++churn_events;
    std::this_thread::sleep_for(500us);
    if (unwatched[i]) ++late_events;
  });
  loop.start();
  for (std::size_t i = 0; i < kSteady; ++i) {
    unwatched[i] = false;
    service.watch_dcpp(devices[i]->id(), fast_dcpp_cp());
  }
  ASSERT_TRUE(eventually([&] { return service.watch_count() == kSteady; }));

  std::thread churn([&] {
    util::Rng rng(7);
    for (int op = 0; op < kOperations; ++op) {
      const std::size_t i = kSteady + op % (kDevices - kSteady);
      unwatched[i] = false;
      service.watch_dcpp(devices[i]->id(), fast_dcpp_cp());  // posted
      // Registered before it is unwatched: an unwatch that ran ahead
      // of the posted watch would find nothing to remove.
      const auto deadline = std::chrono::steady_clock::now() + 3s;
      while (service.watch_count() != kSteady + 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.uniform_u64(0, 1000)));
      service.unwatch(devices[i]->id());  // waits for the loop
      unwatched[i] = true;
    }
  });
  churn.join();
  for (std::size_t i = 0; i < kSteady; ++i) {
    service.unwatch(devices[i]->id());
  }
  EXPECT_EQ(service.watch_count(), 0u);
  EXPECT_GT(churn_events.load(), 0) << "no churned cycle completed";
  EXPECT_EQ(late_events.load(), 0) << "an event outlived its unwatch()";
  loop.stop();
}

}  // namespace
}  // namespace probemon::runtime
