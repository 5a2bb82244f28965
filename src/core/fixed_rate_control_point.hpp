// The naive baseline: probe at a fixed, configured period.
//
// The paper's introduction dismisses this scheme in one line — "The
// simplest scheme one could consider is to regularly probe a device …
// This scheme, however, easily leads to over- or underloading of
// devices" — and both SAPP and DCPP exist to fix it. We implement it as
// the experimental baseline so that claim can be measured (bench A12):
// with k CPs at fixed period p the device load is k/p, unbounded in k
// and oblivious to L_nom.
#pragma once

#include "core/control_point_base.hpp"

namespace probemon::core {

struct FixedRateCpConfig {
  TimeoutConfig timeouts{};
  /// Fixed inter-cycle delay (seconds). The UPnP-ish default of one
  /// probe per second per CP, the kind of value a naive implementor
  /// picks to satisfy "detect absence in the order of one second".
  double period = 1.0;
  bool continue_after_absence = false;

  void validate() const {
    timeouts.validate();
    if (!(period > 0)) {
      throw std::invalid_argument("FixedRateCp: period > 0");
    }
  }
};

class FixedRateControlPoint final : public ControlPointBase {
 public:
  FixedRateControlPoint(des::Clock& clock, net::Link& link,
                        EntityArena& arena, net::NodeId device,
                        FixedRateCpConfig config,
                        ProtocolObserver* observer = nullptr)
      : ControlPointBase(clock, link, arena, device, config.timeouts,
                         config.continue_after_absence, observer),
        config_(config) {
    config_.validate();
  }

  const FixedRateCpConfig& config() const noexcept { return config_; }

 protected:
  double delay_after_success(const net::Message&, double) override {
    return config_.period;
  }
  double delay_after_failure() override { return config_.period; }

 private:
  FixedRateCpConfig config_;
};

}  // namespace probemon::core
