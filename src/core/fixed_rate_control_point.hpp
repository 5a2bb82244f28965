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

class FixedRateControlPoint final : public ControlPointBase {
 public:
  FixedRateControlPoint(des::Clock& clock, net::Link& link,
                        EntityArena& arena, net::NodeId device,
                        FixedRateCpConfig config,
                        ProtocolObserver* observer = nullptr)
      : ControlPointBase(clock, link, arena, device,
                         validated(config).timeouts,
                         config.continue_after_absence, observer),
        config_(&arena.intern(config)) {}
  ~FixedRateControlPoint() override { arena().release(*config_); }

  /// The arena's shared copy of the config this CP was built with.
  const FixedRateCpConfig& config() const noexcept { return *config_; }

 protected:
  double delay_after_success(const net::Message&, double) override {
    return config_->period;
  }
  double delay_after_failure() override { return config_->period; }

 private:
  const FixedRateCpConfig* config_;
};

}  // namespace probemon::core
