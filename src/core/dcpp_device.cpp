#include "core/dcpp_device.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace probemon::core {

template <class Server>
BasicDcppDevice<Server>::BasicDcppDevice(typename Server::Clock& clock,
                                         net::Link& link, EntityArena& arena,
                                         DcppDeviceConfig config,
                                         ProtocolObserver* observer)
    : BasicDevice<Server>(clock, link, arena, validated(config).compute,
                          observer),
      config_(&arena.intern(config)) {}

template <class Server>
BasicDcppDevice<Server>::~BasicDcppDevice() {
  this->arena().release(*config_);
}

template <class Server>
double BasicDcppDevice<Server>::grant(double nt, double t,
                                      const DcppDeviceConfig& config) {
  const double frontier = std::max(nt, t);
  const double backlog = frontier - t;  // >= 0 by construction
  const double delta = std::max(config.delta_min, config.d_min - backlog);
  const double next = frontier + delta;
  return next - t;
}

template <class Server>
void BasicDcppDevice<Server>::fill_reply(const net::Message& /*probe*/,
                                         double t, net::Message& reply) {
  const double wait = grant(nt_, t, *config_);
  const double granted = t + wait;
  PROBEMON_INVARIANT(granted >= nt_ && wait + 1e-12 >= config_->d_min,
                     "DCPP grant broke the schedule: nt " << nt_ << " -> "
                         << granted << ", wait " << wait << " (d_min "
                         << config_->d_min << ")");
  if (ProtocolObserver* observer = this->observer()) {
    observer->on_slot_granted(this->id(), t, nt_, granted);
  }
  nt_ = granted;
  reply.grant_delay = wait;
}

template class BasicDcppDevice<SerialServer>;
template class BasicDcppDevice<InlineServer>;

}  // namespace probemon::core
