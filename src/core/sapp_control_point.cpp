#include "core/sapp_control_point.hpp"

namespace probemon::core {

SappControlPoint::SappControlPoint(des::Clock& clock, net::Link& link,
                                   EntityArena& arena, net::NodeId device,
                                   SappCpConfig config,
                                   ProtocolObserver* observer)
    : ControlPointBase(clock, link, arena, device, validated(config).timeouts,
                       config.continue_after_absence, observer),
      adaptation_(arena.intern(config)) {}

SappControlPoint::~SappControlPoint() { arena().release(config()); }

double SappControlPoint::delay_after_success(const net::Message& reply,
                                             double t) {
  // Observation instant for the load estimate: reply arrival for a clean
  // first-probe success; the retransmission's send time otherwise (paper:
  // "In case of a failed probe, the time at which the retransmitted probe
  // has been sent is taken").
  const double t_obs =
      reply.attempt == 0 ? t : cycle().last_send_time();
  return adaptation_.observe(reply.pc, t_obs);
}

void SappControlPoint::on_stale_reply(const net::Message& reply, double t) {
  if (!config().use_every_reply) return;
  // Duplicate replies (the device answers every probe of a retransmitted
  // cycle) are load observations too: their (pc, t) pair spans only the
  // inter-duplicate gap, so L_exp spikes and the delay doubles. The new
  // delta takes effect when the next cycle completes.
  adaptation_.observe(reply.pc, t);
}

}  // namespace probemon::core
