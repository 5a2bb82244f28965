// Pure SAPP adaptation state machine (paper eq. 1), run by
// core::SappControlPoint on both engines (the reactor's
// runtime::AsyncSappControlPoint wraps that same CP) and reused for the
// agent staleness deadlines in runtime/collector.hpp. Keeping it pure
// makes the adaptation rule unit- and property-testable in isolation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "check/contract.hpp"
#include "core/config.hpp"

namespace probemon::core {

class SappAdaptation {
 public:
  explicit SappAdaptation(const SappCpConfig& config)
      : config_(&config),
        delta_(config.initial_delay),
        l_exp_(std::numeric_limits<double>::quiet_NaN()) {}

  /// The rule's constants, read in place: the caller's config outlives
  /// the adaptation.
  const SappCpConfig& config() const noexcept { return *config_; }
  /// Current inter-probe-cycle delay.
  double delta() const noexcept { return delta_; }
  /// Last experienced-load estimate (NaN before two observations).
  double experienced_load() const noexcept { return l_exp_; }

  /// Feed one successful probe observation: the reply's probe counter
  /// `pc` and the observation instant `t_obs` (reply arrival for a clean
  /// success; retransmission send time otherwise). Returns the delay to
  /// wait before the next cycle.
  double observe(std::uint64_t pc, double t_obs) {
    if (has_prev_ && t_obs > prev_t_) {
      l_exp_ = static_cast<double>(pc - prev_pc_) / (t_obs - prev_t_);
      if (l_exp_ > config_->beta * config_->l_ideal) {
        delta_ = std::min(config_->alpha_inc * delta_, config_->delta_max);
      } else if (l_exp_ < config_->l_ideal / config_->beta) {
        delta_ = std::max(delta_ / config_->alpha_dec, config_->delta_min);
      }
      // else: within the tolerance band; keep delta.
    }
    has_prev_ = true;
    prev_pc_ = pc;
    prev_t_ = t_obs;
    PROBEMON_INVARIANT(
        delta_ >= config_->delta_min && delta_ <= config_->delta_max,
        "SAPP delay escaped its clamp: " << delta_ << " outside ["
                                         << config_->delta_min << ", "
                                         << config_->delta_max << "]");
    return delta_;
  }

 private:
  const SappCpConfig* config_;
  double delta_;
  double l_exp_;
  bool has_prev_ = false;
  std::uint64_t prev_pc_ = 0;
  double prev_t_ = 0;
};

}  // namespace probemon::core
