#include "runtime/event_loop/async_udp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef PROBEMON_CHECKED
#include <cstdio>
#include <cstdlib>
#endif

#include "util/prefetch.hpp"

namespace probemon::runtime {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// recvmmsg()/sendmmsg() depth per syscall. A run of datagrams to one
// port is capped by the send batch; every kernel with UDP_SEGMENT
// accepts that many segments.
constexpr int kRecvBatch = 64;
constexpr int kSendBatch = 64;
// Fairness bound: max datagrams consumed per readable-fd wake
// (level-triggered epoll re-fires for the remainder).
constexpr int kMaxDatagramsPerWake = 4096;
// Socket buffer sizes; generous, because an open-loop prober can burst
// far ahead of the loop.
constexpr int kSocketBufBytes = 1 << 22;

// A receive slot holds one coalesced run, plus room to notice a
// datagram that is larger than the wire format.
constexpr std::size_t kRecvBufSize = kSendBatch * kUdpWireSize + 16;
// Receive pipeline depth, as des::Scheduler's dispatch pipeline: while
// datagram i of a batch is dispatched, datagram i + kLookahead
// prefetches its destination and datagram i + 2 * kLookahead its
// client-table entries.
constexpr std::size_t kLookahead = 4;
// Decoded datagrams held ahead of dispatch: i .. i + 2 * kLookahead,
// rounded up to a power of two so a position maps to a slot by a mask.
constexpr std::size_t kRing = std::bit_ceil(2 * kLookahead + 1);

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

#ifdef __linux__
/// Segment size of a received message: the UDP_GRO control message's
/// value for a coalesced run, else the whole message is one datagram.
std::size_t segment_size(msghdr& hdr, std::size_t len) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&hdr); c != nullptr;
       c = CMSG_NXTHDR(&hdr, c)) {
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
      int size = 0;
      std::memcpy(&size, CMSG_DATA(c), sizeof(size));
      if (size > 0) return static_cast<std::size_t>(size);
    }
  }
  return len;
}
#endif

}  // namespace

/// One datagram of a receive batch, decoded ahead of its dispatch.
struct AsyncUdpTransport::Received {
  net::Message msg;
  std::uint16_t src_port;
  /// A wire datagram that decoded; false counts as a receive error.
  bool ok;
};

struct AsyncUdpTransport::IoBatches {
#ifdef __linux__
  // recvmmsg scratch: one slot/iovec/source-addr/control/header per
  // message. The slots are allocated, not zero-filled: the kernel
  // writes a slot before it is read, and untouched pages stay out of
  // the resident set.
  union Control {  // room for the UDP_GRO segment-size message
    cmsghdr align;
    char buf[CMSG_SPACE(sizeof(int))];
  };
  std::unique_ptr<std::uint8_t[]> rbuf =
      std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBatch *
                                                     kRecvBufSize);
  std::array<iovec, kRecvBatch> riov{};
  std::array<sockaddr_in, kRecvBatch> raddr{};
  std::array<Control, kRecvBatch> rctl{};
  std::array<mmsghdr, kRecvBatch> rmsgs{};
  // The receive batch split into datagrams: each message's segment size
  // (split()), a cursor at the next datagram to decode, and the ring of
  // decoded datagrams the dispatch pipeline runs over.
  std::array<std::size_t, kRecvBatch> rseg;
  std::size_t next_msg = 0;
  std::size_t next_off = 0;
  std::array<Received, kRing> ring;
  // sendmmsg batch, filled by send() and drained by flush(). Datagrams
  // sit in consecutive slots of `sbuf`; smsgs[0, runs) are the pending
  // messages, each one run whose iovec spans its datagrams' slots.
  std::array<std::uint8_t, kSendBatch * kUdpWireSize> sbuf{};
  std::array<iovec, kSendBatch> siov{};
  std::array<sockaddr_in, kSendBatch> saddr{};
  std::array<mmsghdr, kSendBatch> smsgs{};
  int datagrams = 0;
  int runs = 0;
  /// The kernel accepted UDP_SEGMENT: a run may span several datagrams.
  bool gso = false;

  IoBatches() {
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      riov[i] = {rbuf.get() + i * kRecvBufSize, kRecvBufSize};
      rmsgs[i].msg_hdr.msg_iov = &riov[i];
      rmsgs[i].msg_hdr.msg_iovlen = 1;
      rmsgs[i].msg_hdr.msg_name = &raddr[i];
      rmsgs[i].msg_hdr.msg_control = rctl[i].buf;
    }
    for (std::size_t i = 0; i < kSendBatch; ++i) {
      smsgs[i].msg_hdr.msg_iov = &siov[i];
      smsgs[i].msg_hdr.msg_iovlen = 1;
      smsgs[i].msg_hdr.msg_name = &saddr[i];
      smsgs[i].msg_hdr.msg_namelen = sizeof(saddr[i]);
    }
  }

  /// Record the segment size of each of the `messages` received and
  /// rewind the cursor; returns the batch's datagram count. A truncated
  /// message is one bad datagram, and so is an empty one.
  std::size_t split(int messages) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(messages); ++i) {
      msghdr& hdr = rmsgs[i].msg_hdr;
      const std::size_t len = rmsgs[i].msg_len;
      if ((hdr.msg_flags & MSG_TRUNC) != 0 || len == 0) {
        rseg[i] = len;  // read as one datagram of len bytes (see next())
        ++count;
        continue;
      }
      rseg[i] = segment_size(hdr, len);
      count += (len + rseg[i] - 1) / rseg[i];
    }
    next_msg = 0;
    next_off = 0;
    return count;
  }

  /// Decode the cursor's datagram into `out` and step past it.
  void next(Received& out) {
    const std::size_t m = next_msg;
    const std::size_t len = rmsgs[m].msg_len;
    const std::size_t piece = std::min(rseg[m], len - next_off);
    out.src_port = ntohs(raddr[m].sin_port);
    // Larger than a slot: one bad datagram, none of it delivered.
    out.ok = (rmsgs[m].msg_hdr.msg_flags & MSG_TRUNC) == 0 &&
             udp_decode(rbuf.get() + m * kRecvBufSize + next_off, piece,
                        out.msg);
    next_off += rseg[m];
    if (next_off >= len) {
      ++next_msg;
      next_off = 0;
    }
  }

  /// Datagrams carried by the pending messages [first, last).
  std::uint64_t datagrams_in(int first, int last) const {
    std::size_t bytes = 0;
    for (int i = first; i < last; ++i) {
      bytes += siov[static_cast<std::size_t>(i)].iov_len;
    }
    return bytes / kUdpWireSize;
  }
#else
  std::array<std::uint8_t, kUdpWireSize + 16> rbuf{};  // oversize detect
#endif
};

AsyncUdpTransport::AsyncUdpTransport(EventLoop& loop)
    : AsyncUdpTransport(loop, Config{}) {}

AsyncUdpTransport::AsyncUdpTransport(EventLoop& loop, Config config)
    : loop_(loop), io_(std::make_unique<IoBatches>()) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("AsyncUdpTransport: socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufBytes,
               sizeof(kSocketBufBytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufBytes,
               sizeof(kSocketBufBytes));
#ifdef __linux__
  // Segmentation offload, each half on when the kernel accepts it:
  // a send may carry a run of datagrams that the kernel cuts into
  // kUdpWireSize-byte datagrams (GSO), and a receive may return such a
  // run whole (GRO).
  const int segment = static_cast<int>(kUdpWireSize);
  io_->gso = ::setsockopt(fd_, SOL_UDP, UDP_SEGMENT, &segment,
                          sizeof(segment)) == 0;
  ::setsockopt(fd_, SOL_UDP, UDP_GRO, &one, sizeof(one));
#endif
  sockaddr_in addr = loopback_addr(config.port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("AsyncUdpTransport: bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    local_port_ = ntohs(addr.sin_port);
  }
  clients_.resize(1);  // NodeId 0 = kInvalidNode, never attached
  loop_.add_fd(fd_, [this](std::uint32_t) { on_readable(); });
  flush_hook_ = loop_.add_flush_hook([this] { flush(); });
}

AsyncUdpTransport::~AsyncUdpTransport() {
  assert_loop_confined("~AsyncUdpTransport");
  flush();
  loop_.remove_flush_hook(flush_hook_);
  loop_.remove_fd(fd_);
  ::close(fd_);
}

void AsyncUdpTransport::assert_loop_confined(const char* what) const {
#ifdef PROBEMON_CHECKED
  if (loop_.running() && !loop_.on_loop_thread()) {
    std::fprintf(stderr, "AsyncUdpTransport: %s off the loop thread\n", what);
    std::abort();
  }
#else
  (void)what;
#endif
}

net::NodeId AsyncUdpTransport::attach(net::INetworkClient& client) {
  assert_loop_confined("attach");
  const net::NodeId id = next_id_++;
  if (id >= clients_.size()) clients_.resize(id + 1, nullptr);
  clients_[id] = &client;
  return id;
}

void AsyncUdpTransport::detach(net::NodeId id) {
  assert_loop_confined("detach");
  if (attached(id)) clients_[id] = nullptr;
}

void AsyncUdpTransport::set_peer(net::NodeId id, std::uint16_t port) {
  assert_loop_confined("set_peer");
  peers_[id] = port;
}

bool AsyncUdpTransport::send(net::Message msg) {
  assert_loop_confined("send");
  std::uint16_t port = 0;
  if (attached(msg.to)) {
    port = local_port_;  // loops back through the kernel, not in-process
  } else {
    auto it = peers_.find(msg.to);
    if (it != peers_.end()) port = it->second;
  }
  if (port == 0) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
#ifdef __linux__
  IoBatches& io = *io_;
  std::uint8_t* slot =
      io.sbuf.data() + static_cast<std::size_t>(io.datagrams) * kUdpWireSize;
  udp_encode(msg, slot);
  const std::uint16_t wire_port = htons(port);
  if (io.gso && io.runs > 0 &&
      io.saddr[static_cast<std::size_t>(io.runs - 1)].sin_port == wire_port) {
    // Same destination as the open run: the slots are adjacent, so the
    // run's iovec grows over this datagram.
    io.siov[static_cast<std::size_t>(io.runs - 1)].iov_len += kUdpWireSize;
  } else {
    const auto run = static_cast<std::size_t>(io.runs++);
    io.siov[run] = {slot, kUdpWireSize};
    io.saddr[run] = loopback_addr(port);
  }
  if (++io.datagrams >= kSendBatch) flush();
  return true;
#else
  std::uint8_t buf[kUdpWireSize];
  udp_encode(msg, buf);
  const sockaddr_in addr = loopback_addr(port);
  const ssize_t n =
      ::sendto(fd_, buf, sizeof(buf), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (n != static_cast<ssize_t>(sizeof(buf))) {
    send_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
#endif
}

void AsyncUdpTransport::flush() {
#ifdef __linux__
  IoBatches& io = *io_;
  int done = 0;
  while (done < io.runs) {
    const int n = ::sendmmsg(fd_, io.smsgs.data() + done,
                             static_cast<unsigned>(io.runs - done), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN (full socket buffer) or a real error: UDP is best-effort
      // loss either way — count the remainder's datagrams and move on,
      // never block the loop.
      send_errors_.fetch_add(io.datagrams_in(done, io.runs),
                             std::memory_order_relaxed);
      break;
    }
    sent_.fetch_add(io.datagrams_in(done, done + n),
                    std::memory_order_relaxed);
    done += n;
  }
  io.runs = 0;
  io.datagrams = 0;
#endif
}

void AsyncUdpTransport::on_readable() {
  int consumed = 0;
#ifdef __linux__
  IoBatches& io = *io_;
  while (consumed < kMaxDatagramsPerWake) {
    // Source-addr and control lengths are overwritten by the kernel;
    // re-arm them.
    for (auto& m : io.rmsgs) {
      m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      m.msg_hdr.msg_controllen = sizeof(IoBatches::Control);
    }
    const int n = ::recvmmsg(fd_, io.rmsgs.data(), kRecvBatch, MSG_DONTWAIT,
                             nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        recv_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    if (n == 0) break;
    // The batch's one clock read: every handler below sees it as now().
    const EventLoop::BatchInstant instant(loop_);
    const std::size_t datagrams = io.split(n);
    // Dispatch in arrival order, as a software pipeline: datagram i runs
    // while datagram i + kLookahead's destination and datagram
    // i + 2 * kLookahead's table entries load.
    const auto read_ahead = [&](Received& r) {
      io.next(r);
      prefetch_entries(r);
    };
    const std::size_t primed = std::min(datagrams, 2 * kLookahead);
    for (std::size_t i = 0; i < primed; ++i) read_ahead(io.ring[i]);
    for (std::size_t i = 0; i < datagrams; ++i) {
      if (i + 2 * kLookahead < datagrams) {
        read_ahead(io.ring[(i + 2 * kLookahead) % kRing]);
      }
      if (i + kLookahead < datagrams) {
        prefetch_destination(io.ring[(i + kLookahead) % kRing]);
      }
      dispatch(io.ring[i % kRing]);
    }
    if (recv_depth_hist_) {
      recv_depth_hist_->observe(static_cast<double>(datagrams));
    }
    consumed += static_cast<int>(datagrams);
    if (n < kRecvBatch) break;  // socket drained
  }
#else
  while (consumed < kMaxDatagramsPerWake) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(fd_, io_->rbuf.data(), io_->rbuf.size(), 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        recv_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    // A batch of one datagram, so one clock read per datagram.
    const EventLoop::BatchInstant instant(loop_);
    if (recv_depth_hist_) recv_depth_hist_->observe(1.0);
    Received r;
    r.src_port = ntohs(src.sin_port);
    r.ok = udp_decode(io_->rbuf.data(), static_cast<std::size_t>(n), r.msg);
    dispatch(r);
    ++consumed;
  }
#endif
}

void AsyncUdpTransport::prefetch_entries(const Received& r) const {
  // A malformed datagram has no entries; `from` is where an inline
  // device's reply goes.
  if (!r.ok) return;
  const std::size_t size = clients_.size();
  if (r.msg.to < size) util::prefetch(&clients_[r.msg.to]);
  if (r.msg.from < size) util::prefetch(&clients_[r.msg.from]);
}

void AsyncUdpTransport::prefetch_destination(const Received& r) const {
  // The table is read afresh: a handler that ran since this datagram
  // was decoded may have detached its destination or reallocated the
  // table. The client is only prefetched, never dereferenced, so a
  // stale entry costs nothing.
  if (!r.ok || r.msg.to >= clients_.size()) return;
  const net::INetworkClient* client = clients_[r.msg.to];
  if (client != nullptr) util::prefetch_range(client, 4 * util::kCacheLine);
}

void AsyncUdpTransport::dispatch(const Received& r) {
  if (!r.ok) {
    recv_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const net::Message& msg = r.msg;
  // Peer learning: an unknown external sender binds its NodeId to the
  // datagram's source port, so replies route back without pre-config.
  // Our own port teaches nothing: a datagram from it comes from a local
  // endpoint that detached while the datagram was in flight. Checking
  // the port first spares loopback traffic a second client-table load.
  if (r.src_port != local_port_ && msg.from != net::kInvalidNode &&
      !attached(msg.from)) {
    peers_[msg.from] = r.src_port;
  }
  if (!attached(msg.to)) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  clients_[msg.to]->on_message(msg);
}

void AsyncUdpTransport::instrument(telemetry::Registry& registry,
                                   const std::string& transport_name) {
  const telemetry::Labels labels{{"transport", transport_name}};
  registry.counter_callback(
      "probemon_transport_datagrams_sent_total",
      [this] { return static_cast<double>(sent_count()); },
      "Datagrams handed to the kernel", labels);
  registry.counter_callback(
      "probemon_transport_datagrams_delivered_total",
      [this] { return static_cast<double>(delivered_count()); },
      "Datagrams decoded and dispatched to a handler", labels);
  registry.counter_callback(
      "probemon_transport_send_errors_total",
      [this] { return static_cast<double>(send_error_count()); },
      "sendmmsg/sendto failures (full buffers count as loss)", labels);
  registry.counter_callback(
      "probemon_transport_recv_errors_total",
      [this] { return static_cast<double>(recv_error_count()); },
      "Receive failures and undecodable datagrams", labels);
  registry.counter_callback(
      "probemon_transport_unroutable_total",
      [this] { return static_cast<double>(unroutable_count()); },
      "Datagrams addressed to no attached handler or known peer", labels);
  recv_depth_hist_ = &registry.histogram(
      "probemon_transport_recv_batch_depth",
      // 1 .. 4096: a full call of 64 messages, each a run of 64.
      telemetry::Histogram::exponential_buckets(1.0, 2.0, 13),
      "Datagrams returned per receive call, coalesced ones included",
      labels);
}

}  // namespace probemon::runtime
