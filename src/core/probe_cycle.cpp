#include "core/probe_cycle.hpp"

#include <stdexcept>

#include "check/contract.hpp"

namespace probemon::core {

ProbeCycle::ProbeCycle(const TimeoutConfig& timeouts)
    : timeouts_(&validated(timeouts)) {}

void ProbeCycle::start(double now) {
  if (active_) throw std::logic_error("ProbeCycle::start: cycle active");
  active_ = true;
  ++cycle_;
  attempt_ = 0;
  record_send(now);
}

bool ProbeCycle::expire(double now) {
  PROBEMON_CONTRACT(active_, "probe cycle timeout with no cycle active");
  if (attempt_ < timeouts_->max_retransmissions) {
    ++attempt_;
    record_send(now);
    return true;
  }
  active_ = false;
  ++cycles_failed_;
  return false;
}

bool ProbeCycle::offer_reply(const net::Message& reply) {
  if (!active_) return false;
  if (reply.cycle != cycle_) return false;  // stale: an abandoned cycle
  // A device echoes the attempt it answers, so a reply naming one this
  // cycle has not sent is forged or corrupt: it proves nothing.
  if (reply.attempt > attempt_) return false;
  active_ = false;
  ++cycles_succeeded_;
  return true;
}

void ProbeCycle::record_send(double now) {
  PROBEMON_INVARIANT(attempt_ <= timeouts_->max_retransmissions,
                     "probe cycle " << cycle_ << " transmitting attempt "
                         << int(attempt_) << " beyond the paper's bound of "
                         << timeouts_->max_retransmissions
                         << " retransmissions");
  last_send_time_ = now;
  ++probes_sent_;
}

}  // namespace probemon::core
