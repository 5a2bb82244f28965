// Tests for the bounded-retransmission probe-cycle FSM (paper Fig 1):
// TOF/TOS timing, the 4-probe budget, stale-reply rejection, counters.
// The harness plays the owner the way ControlPointBase does: it sends on
// start/expire and runs one scheduler timer armed for timeout().
#include <gtest/gtest.h>

#include <vector>

#include "core/probe_cycle.hpp"
#include "des/scheduler.hpp"

namespace probemon::core {
namespace {

constexpr double kTof = 0.022;
constexpr double kTos = 0.021;

struct Harness {
  explicit Harness(int max_retransmissions = 3)
      : timeouts{kTof, kTos, max_retransmissions}, cycle(timeouts) {}

  des::Scheduler sched;
  TimeoutConfig timeouts;  ///< read in place by the cycle
  ProbeCycle cycle;
  des::EventId timer;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> sent;
  std::vector<double> send_times;
  int successes = 0;
  int failures = 0;

  void start() {
    cycle.start(sched.now());
    transmit();
  }

  void transmit() {
    sent.emplace_back(cycle.cycle(), cycle.attempt());
    send_times.push_back(sched.now());
    timer = sched.schedule_after(cycle.timeout(), [this] {
      timer = des::EventId{};
      if (cycle.expire(sched.now())) {
        transmit();
      } else {
        ++failures;
      }
    });
  }

  bool reply(std::uint64_t cycle_number, std::uint8_t attempt = 0) {
    net::Message m;
    m.kind = net::MessageKind::kReply;
    m.cycle = cycle_number;
    m.attempt = attempt;
    if (!cycle.offer_reply(m)) return false;
    sched.cancel(timer);
    ++successes;
    return true;
  }

  void abort() {
    cycle.abort();
    sched.cancel(timer);
  }
};

TEST(ProbeCycle, FirstProbeSentImmediatelyOnStart) {
  Harness h;
  h.start();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0], std::make_pair(std::uint64_t{1}, std::uint8_t{0}));
  EXPECT_TRUE(h.cycle.active());
  EXPECT_EQ(h.cycle.timeout(), kTof);
}

TEST(ProbeCycle, ReplyEndsCycleSuccessfully) {
  Harness h;
  h.start();
  EXPECT_TRUE(h.reply(1));
  EXPECT_EQ(h.successes, 1);
  EXPECT_FALSE(h.cycle.active());
  // Timeout must not fire afterwards.
  h.sched.run_until(1.0);
  EXPECT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.failures, 0);
  EXPECT_EQ(h.cycle.cycles_succeeded(), 1u);
}

TEST(ProbeCycle, RetransmitsWithTofThenTos) {
  Harness h;
  h.start();
  h.sched.run_until(10.0);  // nothing answers
  ASSERT_EQ(h.sent.size(), 4u);  // 1 + 3 retransmissions
  EXPECT_NEAR(h.send_times[1] - h.send_times[0], kTof, 1e-12);
  EXPECT_NEAR(h.send_times[2] - h.send_times[1], kTos, 1e-12);
  EXPECT_NEAR(h.send_times[3] - h.send_times[2], kTos, 1e-12);
  EXPECT_EQ(h.failures, 1);
  EXPECT_EQ(h.successes, 0);
  EXPECT_FALSE(h.cycle.active());
  EXPECT_EQ(h.cycle.cycles_failed(), 1u);
  EXPECT_EQ(h.cycle.probes_sent(), 4u);
}

TEST(ProbeCycle, AttemptNumbersIncrease) {
  Harness h;
  h.start();
  h.sched.run_until(10.0);
  for (std::uint8_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.sent[i].second, i);
  }
}

TEST(ProbeCycle, ZeroRetransmissionsFailsAfterOneProbe) {
  Harness h(0);
  h.start();
  h.sched.run_until(10.0);
  EXPECT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.failures, 1);
}

TEST(ProbeCycle, ReplyDuringRetransmissionPhaseAccepted) {
  Harness h;
  h.start();
  h.sched.run_until(kTof + 0.001);  // one retransmission out
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.cycle.timeout(), kTos);
  EXPECT_TRUE(h.reply(1, 1));
  EXPECT_EQ(h.successes, 1);
  h.sched.run_until(10.0);
  EXPECT_EQ(h.sent.size(), 2u);  // no further probes
}

TEST(ProbeCycle, StaleReplyFromPreviousCycleRejected) {
  Harness h;
  h.start();
  EXPECT_TRUE(h.reply(1));
  h.start();  // cycle 2
  EXPECT_FALSE(h.reply(1));  // duplicate of cycle 1
  EXPECT_EQ(h.successes, 1);
  EXPECT_TRUE(h.cycle.active());
  EXPECT_TRUE(h.reply(2));
  EXPECT_EQ(h.successes, 2);
}

TEST(ProbeCycle, ReplyToAnUnsentAttemptIsStale) {
  // Only attempts 0 .. attempt() have gone out. A reply naming a later
  // one is forged or corrupt; accepting it would report more attempts
  // than were sent (255 + 1 wraps the count to 0).
  Harness h;
  h.start();
  EXPECT_FALSE(h.reply(1, 1));
  EXPECT_FALSE(h.reply(1, 200));
  EXPECT_FALSE(h.reply(1, 255));
  EXPECT_TRUE(h.cycle.active());
  h.sched.run_until(kTof + 0.001);  // attempt 1 goes out
  ASSERT_EQ(h.cycle.attempt(), 1);
  EXPECT_FALSE(h.reply(1, 2));
  EXPECT_EQ(h.successes, 0);
  EXPECT_TRUE(h.reply(1, 1));
  EXPECT_EQ(h.cycle.cycles_succeeded(), 1u);
}

TEST(ProbeCycle, ReplyWhenInactiveRejected) {
  Harness h;
  EXPECT_FALSE(h.reply(0));
  EXPECT_FALSE(h.reply(1));
}

TEST(ProbeCycle, AbortStopsWithoutCallbacks) {
  Harness h;
  h.start();
  h.abort();
  h.sched.run_until(10.0);
  EXPECT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.successes, 0);
  EXPECT_EQ(h.failures, 0);
  EXPECT_FALSE(h.cycle.active());
  EXPECT_FALSE(h.reply(1));  // an aborted cycle accepts no reply
}

TEST(ProbeCycle, StartWhileActiveThrows) {
  Harness h;
  h.start();
  EXPECT_THROW(h.cycle.start(h.sched.now()), std::logic_error);
}

TEST(ProbeCycle, CycleNumbersIncrement) {
  Harness h;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    h.start();
    EXPECT_EQ(h.cycle.cycle(), c);
    h.reply(c);
  }
  EXPECT_EQ(h.cycle.cycles_started(), 5u);
  EXPECT_EQ(h.cycle.cycles_succeeded(), 5u);
}

TEST(ProbeCycle, LastSendTimeTracksRetransmissions) {
  Harness h;
  h.sched.run_until(1.0);
  h.start();
  EXPECT_EQ(h.cycle.last_send_time(), 1.0);
  h.sched.run_until(1.0 + kTof + kTos + 0.001);  // two retransmissions out
  EXPECT_NEAR(h.cycle.last_send_time(), 1.0 + kTof + kTos, 1e-12);
  EXPECT_EQ(h.cycle.attempt(), 2);
}

TEST(ProbeCycle, ValidatesConstruction) {
  using Bad = std::invalid_argument;
  const TimeoutConfig zero_tof{0.0, kTos, 3};
  const TimeoutConfig negative_tos{kTof, -1.0, 3};
  const TimeoutConfig negative_retransmissions{kTof, kTos, -1};
  const TimeoutConfig no_retransmissions{kTof, kTos, 0};
  EXPECT_THROW(ProbeCycle{zero_tof}, Bad);
  EXPECT_THROW(ProbeCycle{negative_tos}, Bad);
  EXPECT_THROW(ProbeCycle{negative_retransmissions}, Bad);
  EXPECT_NO_THROW(ProbeCycle{no_retransmissions});
}

}  // namespace
}  // namespace probemon::core
