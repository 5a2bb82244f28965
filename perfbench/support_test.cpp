// Unit tests of the benchmark's own helpers.
//
//   cmake --build .bench_build/perfbench --target perfbench_support_test
//   .bench_build/perfbench/perfbench_support_test
#include <gtest/gtest.h>
#include <sched.h>

#include <cmath>
#include <thread>
#include <vector>

#include "support.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  std::vector<double> empty;
  EXPECT_TRUE(std::isnan(percentile(empty, 0.5)));
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(5, 1.0), 0u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  TailSummary s = summarize_tail(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(s.p50, 500);

  // 999 samples: p99 leaves 9, so the rule falls back to p95.
  s = summarize_tail(one_to(999));
  EXPECT_EQ(s.tail_q, 0.95);

  // 10000 samples: p99.9 leaves 10, but the tail is capped at max_q.
  EXPECT_EQ(summarize_tail(one_to(10000)).tail_q, 0.99);
  EXPECT_EQ(summarize_tail(one_to(10000), 0.999).tail_q, 0.999);
  EXPECT_EQ(summarize_tail(one_to(9999), 0.999).tail_q, 0.99);

  // Too few for any tail: the median stands in.
  s = summarize_tail(one_to(12));
  EXPECT_EQ(s.tail_q, 0.5);
  EXPECT_EQ(s.tail, s.p50);

  EXPECT_EQ(summarize_tail({}).n, 0u);
}

constexpr const char* kProcNetUdp =
    "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when "
    "retrnsmt   uid  timeout inode ref pointer drops\n"
    "  412: 0100007F:A1B2 00000000:0000 07 00000000:00000000 00:00000000 "
    "00000000     0        0 81234 2 0000000000000000 0\n"
    "  877: 0100007F:D431 00000000:0000 07 00000000:00034000 00:00000000 "
    "00000000     0        0 81277 2 0000000000000000 1532\n"
    " 1020: 00000000:0044 00000000:0000 07 00000000:00000000 00:00000000 "
    "00000000     0        0 17001 2 0000000000000000 7\n";

TEST(ProcNetUdp, DropsForPort) {
  EXPECT_EQ(udp_drops_for_port(kProcNetUdp, 0xD431), 1532u);
  EXPECT_EQ(udp_drops_for_port(kProcNetUdp, 0xA1B2), 0u);
  EXPECT_EQ(udp_drops_for_port(kProcNetUdp, 68), 7u);
  EXPECT_FALSE(udp_drops_for_port(kProcNetUdp, 9999).has_value());
  EXPECT_FALSE(udp_drops_for_port("", 68).has_value());
  EXPECT_FALSE(udp_drops_for_port("header only\n", 68).has_value());
}

TEST(ProcNetUdp, SumsSocketsSharingAPort) {
  const std::string text = std::string(kProcNetUdp) +
                           "  878: 0100007F:D431 00000000:0000 07 00000000:"
                           "00000000 00:00000000 00000000     0        0 "
                           "81278 2 0000000000000000 8\n";
  EXPECT_EQ(udp_drops_for_port(text, 0xD431), 1540u);
}

TEST(ProcNetUdp, IgnoresMalformedRows) {
  EXPECT_FALSE(udp_drops_for_port("h\n  1: nocolon x y z\n", 1).has_value());
  EXPECT_FALSE(
      udp_drops_for_port("h\n  1: 0100007F:0001 rest notanumber\n", 1)
          .has_value());
}

TEST(ThreadRusage, TimevalDeltaBorrows) {
  const timeval a{5, 900'000};
  const timeval b{7, 100'000};
  EXPECT_DOUBLE_EQ(timeval_delta_s(a, b), 1.2);
  EXPECT_DOUBLE_EQ(timeval_delta_s(b, b), 0.0);
}

TEST(ThreadRusage, DeltaIsPerFieldAndTotals) {
  const CpuTimes a{1.0, 0.25};
  const CpuTimes b{1.5, 1.0};
  const CpuTimes d = cpu_delta(a, b);
  EXPECT_DOUBLE_EQ(d.user_s, 0.5);
  EXPECT_DOUBLE_EQ(d.sys_s, 0.75);
  EXPECT_DOUBLE_EQ(d.total(), 1.25);
}

TEST(ThreadRusage, CountsOnlyTheCallingThread) {
  // Spin for an amount of this thread's own CPU time, so a host that
  // steals the CPU cannot shorten it.
  auto spin = [](double cpu_seconds) {
    const double end = thread_cpu_s() + cpu_seconds;
    volatile std::uint64_t x = 0;
    while (thread_cpu_s() < end) x = x + 1;
  };
  const CpuTimes before = thread_cpu();
  const double before_s = thread_cpu_s();
  std::thread other([&] { spin(0.2); });
  other.join();
  const CpuTimes idle = cpu_delta(before, thread_cpu());
  EXPECT_LT(idle.total(), 0.1);  // the other thread's 0.2 s is not ours
  EXPECT_LT(thread_cpu_s() - before_s, 0.1);

  const CpuTimes start = thread_cpu();
  spin(0.1);
  const CpuTimes busy = cpu_delta(start, thread_cpu());
  EXPECT_GT(busy.total(), 0.05);  // tick-sampled, so only roughly 0.1
  EXPECT_GE(busy.user_s, 0.0);
  EXPECT_GE(busy.sys_s, 0.0);
}

TEST(CpuRotation, PinsOneAllowedCpuThenRestores) {
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
  {
    CpuRotation rotation;
    for (int i = 0; i < CPU_COUNT(&before) + 1; ++i) {
      rotation.advance();
      cpu_set_t now;
      CPU_ZERO(&now);
      ASSERT_EQ(sched_getaffinity(0, sizeof now, &now), 0);
      EXPECT_EQ(CPU_COUNT(&now), 1);
      cpu_set_t both;
      CPU_AND(&both, &now, &before);
      EXPECT_EQ(CPU_COUNT(&both), 1);  // the pinned CPU was allowed
    }
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&after, &before));
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  Result r;
  r.attempted = 3;
  r.failed = 1;
  r.set("latency_ms", 1.25, "ms");
  EXPECT_EQ(r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(std::nan("")), "null");
}

}  // namespace
}  // namespace perfbench
