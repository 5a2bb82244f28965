#include "core/sapp_device.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace probemon::core {

template <class Server>
struct BasicSappDevice<Server>::Adaptation {
  std::deque<double> probe_times;  ///< inside the adapt window, oldest first
  des::EventId timer;              ///< the next load evaluation
};

template <class Server>
BasicSappDevice<Server>::BasicSappDevice(typename Server::Clock& clock,
                                         net::Link& link, EntityArena& arena,
                                         SappDeviceConfig config,
                                         ProtocolObserver* observer)
    : BasicDevice<Server>(clock, link, arena, validated(config).compute,
                          observer),
      config_(&arena.intern(config)),
      delta_(config.delta()) {
  if (config.adaptive_delta) {
    adaptation_ = std::make_unique<Adaptation>();
    arm_adaptation();
  }
}

template <class Server>
BasicSappDevice<Server>::~BasicSappDevice() {
  if (adaptation_) this->engine_clock().cancel(adaptation_->timer);
  this->arena().release(*config_);
}

template <class Server>
void BasicSappDevice<Server>::set_delta(std::uint64_t delta) {
  if (delta == 0) throw std::invalid_argument("SappDevice: delta > 0");
  delta_ = delta;
  this->notify_delta_changed(delta_);
}

template <class Server>
void BasicSappDevice<Server>::fill_reply(const net::Message& /*probe*/,
                                         double /*t*/, net::Message& reply) {
  pc_ += delta_;
  reply.pc = pc_;
}

template <class Server>
void BasicSappDevice<Server>::on_probe_accepted(const net::Message& /*probe*/,
                                                double t) {
  if (!adaptation_) return;
  std::deque<double>& times = adaptation_->probe_times;
  times.push_back(t);
  while (times.front() < t - config_->adapt_window) times.pop_front();
}

template <class Server>
double BasicSappDevice<Server>::measured_load() const {
  if (!adaptation_) return 0.0;
  return static_cast<double>(adaptation_->probe_times.size()) /
         config_->adapt_window;
}

template <class Server>
void BasicSappDevice<Server>::arm_adaptation() {
  auto evaluate = [this] {
    adapt_delta();
    arm_adaptation();  // after the evaluation, as a periodic task re-arms
  };
  static_assert(des::InlineCallback::fits_inline<decltype(evaluate)>);
  adaptation_->timer = this->engine_clock().schedule_after(
      config_->adapt_period, std::move(evaluate));
}

template <class Server>
void BasicSappDevice<Server>::adapt_delta() {
  const double load = measured_load();
  const double high = config_->overload_factor * config_->l_nom;
  const double low = config_->l_nom / config_->overload_factor;
  const std::uint64_t base_delta = config_->delta();
  if (load > high && delta_ < kDeltaCeiling) {
    // Look twice as busy: CPs will eventually halve the probe load.
    set_delta(std::min(delta_ * 2, kDeltaCeiling));
  } else if (load < low && delta_ > base_delta) {
    set_delta(std::max(base_delta, delta_ / 2));
  }
}

template class BasicSappDevice<SerialServer>;
template class BasicSappDevice<InlineServer>;

}  // namespace probemon::core
