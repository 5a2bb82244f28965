// probemon_loadgen — open-loop UDP probe generator for the async
// runtime.
//
// Drives a process that hosts AsyncDevice endpoints on an
// AsyncUdpTransport (e.g. examples/realtime_runtime --linger=N
// or bench_rt_scale's fleet) from the OUTSIDE, over real datagrams:
//
//   ./probemon_loadgen --target=PORT --rate=50000 --duration=10
//                      --devices=1000 --cps=16 --loss=0.01
//
// It encodes kProbe messages with the runtime's 48-byte wire codec,
// addressed round-robin to device NodeIds 1..--devices, from synthetic
// CP ids starting at 0x40000000 — the target transport learns each CP
// id from the datagram source address, which is how replies find their
// way back here. Pacing is OPEN-LOOP: probe k is due at k/rate seconds
// regardless of replies (it bursts to catch up after a stall, it never
// slows down), which is what makes it a stress tool rather than a
// well-behaved CP. --loss drops that fraction of scheduled probes
// before the socket (seeded, reproducible) to exercise the timeout
// paths of whatever is watching on the other side.
//
// RTT bookkeeping rides the Message.cycle field: each probe carries a
// sequence number, the device echoes it in the reply, and a ring of
// send timestamps turns the echo into a latency sample. The summary
// prints sent/replies/apparent-loss plus RTT p50/p99/max.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "runtime/wire.hpp"
#include "util/cli.hpp"

using namespace probemon;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_samples.size() - 1));
  return sorted_samples[idx];
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto target = cli.get<std::uint64_t>("target", 0);
  const auto rate = cli.get<double>("rate", 10000.0);
  const auto duration = cli.get<double>("duration", 5.0);
  const auto devices = cli.get<std::uint64_t>("devices", 1);
  const auto cps = cli.get<std::uint64_t>("cps", 1);
  const auto loss = cli.get<double>("loss", 0.0);
  const auto seed = cli.get<std::uint64_t>("seed", 42);
  cli.finish("probemon_loadgen: open-loop UDP probe generator");
  if (target == 0 || target > 65535) {
    std::fprintf(stderr, "probemon_loadgen: --target=PORT is required\n");
    return 2;
  }
  if (rate <= 0.0 || devices == 0 || cps == 0 || loss < 0.0 || loss >= 1.0) {
    std::fprintf(stderr,
                 "probemon_loadgen: need --rate>0, --devices>0, --cps>0, "
                 "0<=--loss<1\n");
    return 2;
  }

  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    std::perror("probemon_loadgen: socket");
    return 1;
  }
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(static_cast<std::uint16_t>(target));
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  // Ring of send timestamps keyed by sequence number; deep enough that
  // a reply arriving a full second late still finds its slot at the
  // highest supported rate.
  constexpr std::uint64_t kRing = 1 << 20;
  std::vector<double> sent_at(kRing, -1.0);
  std::vector<double> rtts;
  rtts.reserve(1 << 20);

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  constexpr net::NodeId kCpBase = 0x40000000;

  std::uint64_t sent = 0, suppressed = 0, replies = 0, stale = 0,
                decode_errors = 0;
  std::uint64_t seq = 0;
  const double t_start = now_s();
  const double t_end = t_start + duration;
  double next_due = t_start;
  const double interval = 1.0 / rate;

  std::uint8_t buf[runtime::kUdpWireSize];
  while (true) {
    const double now = now_s();
    if (now >= t_end) break;

    // Send every probe that is due by now (open loop: catch-up bursts).
    while (next_due <= now) {
      next_due += interval;
      const std::uint64_t k = seq++;
      if (loss > 0.0 && uniform(rng) < loss) {
        ++suppressed;
        continue;
      }
      net::Message probe;
      probe.kind = net::MessageKind::kProbe;
      probe.from = kCpBase + static_cast<net::NodeId>(k % cps);
      probe.to = 1 + static_cast<net::NodeId>(k % devices);
      probe.cycle = k;
      runtime::udp_encode(probe, buf);
      sent_at[k % kRing] = now_s();
      if (sendto(fd, buf, sizeof buf, 0,
                 reinterpret_cast<const sockaddr*>(&dest),
                 sizeof dest) == static_cast<ssize_t>(sizeof buf)) {
        ++sent;
      }
    }

    // Drain replies.
    std::uint8_t in[runtime::kUdpWireSize + 16];
    ssize_t n;
    while ((n = recv(fd, in, sizeof in, 0)) > 0) {
      net::Message reply;
      if (static_cast<std::size_t>(n) != runtime::kUdpWireSize ||
          !runtime::udp_decode(in, static_cast<std::size_t>(n), reply)) {
        ++decode_errors;
        continue;
      }
      const double at = sent_at[reply.cycle % kRing];
      if (at < 0.0) {
        ++stale;
        continue;
      }
      ++replies;
      rtts.push_back(now_s() - at);
    }

    // Sleep until the next probe is due (bounded so reply draining
    // stays responsive at low rates).
    const double idle = std::min(next_due - now_s(), 0.01);
    if (idle > 0.0) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(idle);
      ts.tv_nsec = static_cast<long>((idle - static_cast<double>(ts.tv_sec)) *
                                     1e9);
      nanosleep(&ts, nullptr);
    }
  }

  // Grace window for in-flight replies.
  const double t_grace = now_s() + 0.2;
  while (now_s() < t_grace) {
    std::uint8_t in[runtime::kUdpWireSize + 16];
    ssize_t n;
    while ((n = recv(fd, in, sizeof in, 0)) > 0) {
      net::Message reply;
      if (static_cast<std::size_t>(n) != runtime::kUdpWireSize ||
          !runtime::udp_decode(in, static_cast<std::size_t>(n), reply)) {
        ++decode_errors;
        continue;
      }
      const double at = sent_at[reply.cycle % kRing];
      if (at < 0.0) {
        ++stale;
        continue;
      }
      ++replies;
      rtts.push_back(now_s() - at);
    }
    timespec ts{0, 5'000'000};
    nanosleep(&ts, nullptr);
  }
  close(fd);

  std::sort(rtts.begin(), rtts.end());
  const double wall = now_s() - t_start;
  const double apparent_loss =
      sent == 0 ? 0.0
                : 1.0 - static_cast<double>(replies) / static_cast<double>(sent);
  std::printf("probemon_loadgen: target=127.0.0.1:%llu rate=%.0f/s "
              "wall=%.2fs\n",
              static_cast<unsigned long long>(target), rate, wall);
  std::printf("  sent      %llu (+%llu suppressed by --loss=%.3f)\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(suppressed), loss);
  std::printf("  replies   %llu (apparent loss %.3f%%, stale %llu, "
              "decode errors %llu)\n",
              static_cast<unsigned long long>(replies),
              100.0 * apparent_loss, static_cast<unsigned long long>(stale),
              static_cast<unsigned long long>(decode_errors));
  if (!rtts.empty()) {
    std::printf("  rtt       p50 %.0fus  p99 %.0fus  max %.0fus\n",
                1e6 * percentile(rtts, 0.50), 1e6 * percentile(rtts, 0.99),
                1e6 * rtts.back());
  }
  return 0;
}
