// Simulated datagram network with a bounded in-flight buffer.
//
// Matches the paper's network process: messages experience a stochastic
// one-way delay (three-mode by default), may be lost, and occupy a slot
// in a bounded network buffer (capacity 20 000 in the paper) while in
// flight; a full buffer drops the message. The paper reports the average
// buffer length (~0.004 in the SAPP steady-state study), so occupancy is
// tracked time-weighted.
//
// Delivery is best-effort datagram semantics: no ordering guarantee
// beyond what the delay samples induce, no duplication, at-most-once.
//
// An in-flight slot keeps the destination's client pointer, read from
// the client table at send, with the topology epoch of that moment
// (every attach and detach bumps it). The delivery event's prefetch()
// loads the destination's first cache lines while the scheduler still
// runs earlier events (des/scheduler.hpp), and delivery calls the kept
// pointer while the epoch is unchanged; after a topology change it
// reads the table again, so a node that attached or detached in
// flight is counted exactly (delivered or dropped_unknown).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/scheduler.hpp"
#include "net/delay_model.hpp"
#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "net/message.hpp"
#include "stats/time_weighted.hpp"
#include "util/rng.hpp"
#include "util/slab_pool.hpp"

namespace probemon::net {

struct NetworkConfig {
  /// Max number of in-flight messages; exceeding drops. Paper: 20 000.
  std::size_t buffer_capacity = 20'000;
};

struct NetworkCounters {
  std::uint64_t sent = 0;            ///< send() calls accepted from nodes
  std::uint64_t delivered = 0;       ///< reached a registered destination
  std::uint64_t dropped_loss = 0;    ///< loss model discarded
  std::uint64_t dropped_overflow = 0;///< buffer was full
  std::uint64_t dropped_unknown = 0; ///< destination not/no longer attached
  std::uint64_t dropped_outage = 0;  ///< sent while the network was down
};

class Network final : public Link {
 public:
  /// The network forks its own RNG streams (delay, loss) from `rng`.
  Network(des::Scheduler& scheduler, const util::Rng& rng,
          NetworkConfig config, DelayModelPtr delay, LossModelPtr loss);

  /// Paper-default network: three-mode delay, no loss, buffer 20 000.
  static std::unique_ptr<Network> make_paper_default(
      des::Scheduler& scheduler, const util::Rng& rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Link (in-flight messages to a detached node count as
  // dropped_unknown):
  NodeId attach(INetworkClient& client) override;
  void detach(NodeId id) override;
  bool attached(NodeId id) const noexcept override {
    return client_at(id) != nullptr;
  }
  std::size_t node_count() const noexcept { return attached_count_; }

  /// Send msg.from -> msg.to. Loss and buffer limits apply. Returns true
  /// if the message entered the network (it may still be lost later only
  /// if the destination detaches).
  bool send(Message msg) override;

  /// Total network outage during [t0, t1): every message sent inside
  /// the window is dropped. Messages already in flight still arrive
  /// (they left the sender before the cable was pulled). Outage windows
  /// let experiments separate "device crashed" from "network down" —
  /// the false-alarm failure mode of probing detectors.
  void schedule_outage(double t0, double t1);
  bool down() const noexcept { return down_; }

  const NetworkCounters& counters() const noexcept { return counters_; }
  /// Current number of in-flight messages.
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Time-averaged buffer occupancy up to `t` (paper's "buffer length").
  double mean_buffer_occupancy(double t) const {
    return occupancy_.mean_until(t);
  }
  double max_buffer_occupancy() const { return occupancy_.max(); }

  const DelayModel& delay_model() const noexcept { return *delay_; }
  const LossModel& loss_model() const noexcept { return *loss_; }

  /// Slots in the in-flight message pool (monotone; telemetry/tests —
  /// a steady-state run must show this plateau, proving the delivery
  /// path stopped allocating).
  std::size_t message_pool_slots() const noexcept { return pool_.capacity(); }

 private:
  /// One in-flight message with the destination resolved at send.
  struct InFlight {
    Message msg;
    INetworkClient* client = nullptr;  ///< clients_[msg.to] at send
    std::uint64_t epoch = 0;           ///< epoch_ at send
  };
  static_assert(sizeof(InFlight) <= 64, "an in-flight slot fits one line");

  /// The delivery event: captures [network, slot] only, so it stays in
  /// the scheduler callback's inline buffer.
  struct Delivery {
    Network* network;
    std::uint32_t slot;
    void operator()() const { network->deliver_slot(slot); }
    /// Start loading the destination's first four cache lines: its vptr
    /// and the state on_message reads (net/link.hpp).
    void prefetch() const noexcept;
  };

  INetworkClient* client_at(NodeId id) const noexcept {
    return id < clients_.size() ? clients_[id] : nullptr;
  }
  void deliver_slot(std::uint32_t slot);

  des::Scheduler& scheduler_;
  NetworkConfig config_;
  DelayModelPtr delay_;
  LossModelPtr loss_;
  util::Rng delay_rng_;
  util::Rng loss_rng_;
  /// Dense client table indexed by NodeId (ids are handed out
  /// sequentially from 1; slot 0 is kInvalidNode and stays null).
  /// Delivery is an array index instead of a hash lookup, and a million
  /// nodes cost one pointer each.
  std::vector<INetworkClient*> clients_;
  /// In-flight messages parked here so the delivery event captures only
  /// [this, slot] — inside the scheduler callback's inline buffer (a
  /// by-value Message capture would spill to the heap on every send).
  util::SlabPool<InFlight> pool_;
  /// Bumped by every attach and detach: an in-flight slot's client
  /// pointer is current while its epoch equals this.
  std::uint64_t epoch_ = 0;
  NodeId next_id_ = 1;
  std::size_t attached_count_ = 0;
  std::size_t in_flight_ = 0;
  bool down_ = false;
  NetworkCounters counters_;
  stats::TimeWeighted occupancy_;
};

}  // namespace probemon::net
