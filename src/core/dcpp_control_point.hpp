// DCPP control point (paper section 4, "CP behavior").
//
// "The CP shows the same behavior with respect to the probing and
// re-probing of a device, however, the delay between two probe cycles is
// now directly determined by the device." — so the subclass is a one-
// liner: wait exactly the granted delay.
#pragma once

#include "core/control_point_base.hpp"

namespace probemon::core {

class DcppControlPoint final : public ControlPointBase {
 public:
  DcppControlPoint(des::Clock& clock, net::Link& link, EntityArena& arena,
                   net::NodeId device, DcppCpConfig config,
                   ProtocolObserver* observer = nullptr);
  ~DcppControlPoint() override;

  /// The arena's shared copy of the config this CP was built with.
  const DcppCpConfig& config() const noexcept { return *config_; }
  /// Most recent grant received from the device (NaN before the first).
  double last_grant() const noexcept { return last_grant_; }

 protected:
  double delay_after_success(const net::Message& reply, double t) override;
  double delay_after_failure() override;

 private:
  const DcppCpConfig* config_;
  double last_grant_;
};

}  // namespace probemon::core
