// SAPP control point (paper section 2, "CP behavior" and "Adapting the
// probing frequency").
//
// The CP estimates the device's experienced probe load from two
// consecutive successful cycles:
//
//     L_exp = (pc' - pc) / (t' - t)
//
// where t is the reply arrival time of a cleanly answered probe, or — per
// the paper — the send time of the retransmitted probe when earlier
// probes of the cycle went unanswered. The inter-cycle delay adapts
// multiplicatively (eq. 1):
//
//     delta' = min(alpha_inc * delta, delta_max)    if L_exp > beta*L_ideal
//     delta' = max(delta / alpha_dec, delta_min)    if L_exp < L_ideal/beta
//     delta' = delta                                otherwise
//
// This greedy rule is precisely what the paper shows to be unfair: a CP
// cannot distinguish "many medium-rate CPs" from "few fast CPs", and slow
// CPs are systematically late in grabbing freed-up probe budget.
#pragma once

#include <cstdint>

#include "core/control_point_base.hpp"
#include "core/sapp_adaptation.hpp"

namespace probemon::core {

class SappControlPoint final : public ControlPointBase {
 public:
  SappControlPoint(des::Clock& clock, net::Link& link, EntityArena& arena,
                   net::NodeId device, SappCpConfig config,
                   ProtocolObserver* observer = nullptr);
  ~SappControlPoint() override;

  /// The arena's shared copy of the config this CP was built with.
  const SappCpConfig& config() const noexcept { return adaptation_.config(); }

  /// Current inter-probe-cycle delay delta (the adaptation state).
  double delta() const noexcept { return adaptation_.delta(); }

  /// Last computed experienced load (NaN before two successes).
  double experienced_load() const noexcept {
    return adaptation_.experienced_load();
  }

 protected:
  double delay_after_success(const net::Message& reply, double t) override;
  double delay_after_failure() override { return config().delta_max; }
  void on_stale_reply(const net::Message& reply, double t) override;

 private:
  SappAdaptation adaptation_;  ///< holds the shared config's address
};

}  // namespace probemon::core
