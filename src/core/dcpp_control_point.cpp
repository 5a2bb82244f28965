#include "core/dcpp_control_point.hpp"

#include <cmath>
#include <limits>

namespace probemon::core {

DcppControlPoint::DcppControlPoint(des::Clock& clock, net::Link& link,
                                   EntityArena& arena, net::NodeId device,
                                   DcppCpConfig config,
                                   ProtocolObserver* observer)
    : ControlPointBase(clock, link, arena, device, validated(config).timeouts,
                       config.continue_after_absence, observer),
      config_(&arena.intern(config)),
      last_grant_(std::numeric_limits<double>::quiet_NaN()) {}

DcppControlPoint::~DcppControlPoint() { arena().release(*config_); }

double DcppControlPoint::delay_after_success(const net::Message& reply,
                                             double /*t*/) {
  last_grant_ = reply.grant_delay;
  return reply.grant_delay;
}

double DcppControlPoint::delay_after_failure() {
  // Without a grant (device unresponsive but we keep trying), fall back
  // to the last grant, or one second if none was ever received.
  return std::isnan(last_grant_) ? 1.0 : last_grant_;
}

}  // namespace probemon::core
