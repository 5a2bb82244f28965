// Bounded-retransmission probe cycle (paper Fig 1).
//
// A cycle: send a probe; wait TOF; on timeout retransmit and wait TOS,
// up to max_retransmissions times; a reply for the current cycle ends it
// successfully, exhaustion ends it unsuccessfully. The FSM is protocol-
// agnostic: SAPP and DCPP CPs differ only in what they do with the reply.
//
// The FSM owns no timer and calls nothing: its owner sends the probes
// and runs one timer, armed for timeout() after every send. That lets a
// control point serve both the probe timeout and the inter-cycle delay
// from a single scheduler event — the two are never pending at once —
// and keeps a CP free of per-instance callback storage.
//
// Timing bookkeeping exposed to the owner (needed by SAPP's L_exp rule,
// which uses "the time at which the retransmitted probe has been sent"
// when the first probe went unanswered): last_send_time() is when the
// most recent attempt was sent; the reply arrival time is the owner's.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "net/message.hpp"

namespace probemon::core {

class ProbeCycle {
 public:
  /// Throws std::invalid_argument on an invalid TimeoutConfig. The FSM
  /// reads `timeouts` in place (a control point's is its arena's shared
  /// copy), so it must outlive the cycle.
  explicit ProbeCycle(const TimeoutConfig& timeouts);
  ProbeCycle(const TimeoutConfig&& timeouts) = delete;

  /// Begin the next cycle with attempt 0 sent at `now`: the owner sends
  /// (cycle(), 0) and arms its timer for timeout(). Throws
  /// std::logic_error while a cycle is active.
  void start(double now);

  /// The timer armed for timeout() expired at `now`. True: attempt() is
  /// the next retransmission, sent at `now` — the owner sends it and
  /// re-arms for timeout(). False: every probe went unanswered and the
  /// cycle ended unsuccessfully.
  bool expire(double now);

  /// Feed an incoming reply. True if it ends the current cycle
  /// successfully (the owner disarms its timer); stale replies — an
  /// abandoned cycle's, one naming an attempt this cycle has not sent,
  /// or any while no cycle is active — return false.
  bool offer_reply(const net::Message& reply);

  /// Abandon the current cycle, if any; the owner disarms its timer.
  void abort() noexcept { active_ = false; }

  /// Wait after the most recent send: TOF after attempt 0, TOS after a
  /// retransmission.
  double timeout() const noexcept {
    return attempt_ == 0 ? timeouts_->tof : timeouts_->tos;
  }

  const TimeoutConfig& timeouts() const noexcept { return *timeouts_; }

  bool active() const noexcept { return active_; }
  std::uint64_t cycle() const noexcept { return cycle_; }
  std::uint8_t attempt() const noexcept { return attempt_; }
  double last_send_time() const noexcept { return last_send_time_; }

  /// Totals over the FSM's lifetime (cycles are numbered from 1, so the
  /// current number is also the count started).
  std::uint64_t cycles_started() const noexcept { return cycle_; }
  std::uint64_t cycles_succeeded() const noexcept { return cycles_succeeded_; }
  std::uint64_t cycles_failed() const noexcept { return cycles_failed_; }
  std::uint64_t probes_sent() const noexcept { return probes_sent_; }

 private:
  void record_send(double now);

  const TimeoutConfig* timeouts_;
  std::uint64_t cycle_ = 0;
  double last_send_time_ = 0;
  std::uint64_t cycles_succeeded_ = 0;
  std::uint64_t cycles_failed_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint8_t attempt_ = 0;
  bool active_ = false;
};

}  // namespace probemon::core
