#include "net/network.hpp"

#include <sstream>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/prefetch.hpp"

namespace probemon::net {

const char* to_string(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kProbe: return "probe";
    case MessageKind::kReply: return "reply";
    case MessageKind::kBye: return "bye";
    case MessageKind::kNotify: return "notify";
  }
  return "?";
}

std::string Message::describe() const {
  std::ostringstream os;
  os << to_string(kind) << ' ' << from << "->" << to << " cycle=" << cycle
     << " attempt=" << static_cast<int>(attempt);
  if (kind == MessageKind::kReply) {
    os << " pc=" << pc << " grant=" << grant_delay;
  }
  return os.str();
}

Network::Network(des::Scheduler& scheduler, const util::Rng& rng,
                 NetworkConfig config, DelayModelPtr delay, LossModelPtr loss)
    : scheduler_(scheduler),
      config_(config),
      delay_(std::move(delay)),
      loss_(std::move(loss)),
      delay_rng_(rng.fork("net.delay")),
      loss_rng_(rng.fork("net.loss")) {
  if (!delay_) throw std::invalid_argument("Network: null delay model");
  if (!loss_) throw std::invalid_argument("Network: null loss model");
  if (config_.buffer_capacity == 0) {
    throw std::invalid_argument("Network: buffer_capacity > 0");
  }
  occupancy_.set(scheduler_.now(), 0.0);
}

std::unique_ptr<Network> Network::make_paper_default(des::Scheduler& scheduler,
                                                     const util::Rng& rng) {
  return std::make_unique<Network>(scheduler, rng, NetworkConfig{},
                                   make_three_mode_delay(), make_no_loss());
}

NodeId Network::attach(INetworkClient& client) {
  const NodeId id = next_id_++;
  if (clients_.size() <= id) clients_.resize(id + 1, nullptr);
  clients_[id] = &client;
  ++attached_count_;
  ++epoch_;
  return id;
}

void Network::detach(NodeId id) {
  if (!attached(id)) return;
  clients_[id] = nullptr;
  --attached_count_;
  ++epoch_;
}

bool Network::send(Message msg) {
  if (msg.from == kInvalidNode || msg.to == kInvalidNode) {
    throw std::logic_error("Network::send: invalid endpoint");
  }
  ++counters_.sent;
  if (down_) {
    ++counters_.dropped_outage;
    return false;
  }
  if (loss_->lose(loss_rng_)) {
    ++counters_.dropped_loss;
    return false;
  }
  if (in_flight_ >= config_.buffer_capacity) {
    ++counters_.dropped_overflow;
    PLOG_DEBUG << "network buffer overflow, dropping " << msg.describe();
    return false;
  }
  ++in_flight_;
  occupancy_.set(scheduler_.now(), static_cast<double>(in_flight_));
  const double delay = delay_->sample(delay_rng_);
  const std::uint32_t slot = pool_.acquire();
  pool_[slot] = InFlight{msg, client_at(msg.to), epoch_};
  const Delivery fire{this, slot};
  static_assert(des::InlineCallback::fits_inline<decltype(fire)>);
  static_assert(des::InlineCallback::prefetches<decltype(fire)>);
  scheduler_.schedule_after(delay, fire);
  return true;
}

void Network::schedule_outage(double t0, double t1) {
  if (!(t1 > t0) || t0 < scheduler_.now()) {
    throw std::logic_error("schedule_outage: need now <= t0 < t1");
  }
  scheduler_.schedule_at(t0, [this] { down_ = true; });
  scheduler_.schedule_at(t1, [this] { down_ = false; });
}

void Network::Delivery::prefetch() const noexcept {
  const INetworkClient* client = network->pool_[slot].client;
  if (client != nullptr) util::prefetch_range(client, 4 * util::kCacheLine);
}

void Network::deliver_slot(std::uint32_t slot) {
  // Copy out and release first: on_message may send, and the new message
  // is welcome to reuse this slot. The client kept at send is current
  // unless the topology changed since (see the file comment).
  const InFlight flight = pool_[slot];
  pool_.release(slot);
  --in_flight_;
  occupancy_.set(scheduler_.now(), static_cast<double>(in_flight_));
  const Message& msg = flight.msg;
  INetworkClient* client =
      flight.epoch == epoch_ ? flight.client : client_at(msg.to);
  if (client == nullptr) {
    ++counters_.dropped_unknown;
    return;
  }
  ++counters_.delivered;
  client->on_message(msg);
}

}  // namespace probemon::net
