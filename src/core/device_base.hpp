// Common device behaviour shared by SAPP and DCPP devices.
//
// A device is attached to the network, answers probes while present, and
// can depart either gracefully (sends bye to recent probers) or silently
// (simply stops answering — the failure mode the probe protocols exist to
// detect). Replies are issued after a uniform computation delay, matching
// the "maximal computation time of the device" in the paper's timeout
// calibration.
//
// The device also tracks the last two *distinct* CPs that probed it and
// piggybacks their ids on every reply (paper section 2) — this is the
// overlay the dissemination extension uses.
//
// All mutable protocol state (presence, probe counters, the service
// queue head) is the object's first member, right after the vptr: a
// delivery touches one object, whose first two cache lines the network
// prefetched when the probe was sent. The queued probes themselves sit
// in the `core::EntityArena`'s shared node pool, so an idle device
// carries no deque and no heap node.
#pragma once

#include <array>
#include <cstdint>

#include "core/config.hpp"
#include "core/entity_arena.hpp"
#include "core/observer.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"

namespace probemon::core {

/// All mutable protocol state of one device.
struct DeviceState {
  std::uint64_t probes_received = 0;
  std::uint64_t service_epoch = 0;  ///< bumped on go_silent
  /// Last two *distinct* probers, most recent first (overlay seed).
  std::array<net::NodeId, 2> last_probers{net::kInvalidNode,
                                          net::kInvalidNode};
  ServiceQueue queue;  ///< the probe in service included while `busy`
  bool present = true;
  bool busy = false;
};

class DeviceBase : public net::INetworkClient {
 public:
  DeviceBase(des::Simulation& sim, net::Network& network, EntityArena& arena,
             ComputeConfig compute, ProtocolObserver* observer);
  ~DeviceBase() override;

  DeviceBase(const DeviceBase&) = delete;
  DeviceBase& operator=(const DeviceBase&) = delete;

  net::NodeId id() const noexcept { return id_; }
  bool present() const noexcept { return state_.present; }

  /// Crash-style departure: the device stays attached (so probes are
  /// still *delivered*) but never answers again.
  void go_silent();

  /// Graceful departure: sends bye to the last known probers, then goes
  /// silent.
  void leave_gracefully();

  /// Rejoin after a silent period.
  void come_back();

  /// Total probes accepted since creation (including ones still queued
  /// for processing).
  std::uint64_t probes_received() const noexcept {
    return state_.probes_received;
  }

  /// Probes waiting for the device's single-threaded processor (the one
  /// in service excluded).
  std::size_t service_queue_length() const noexcept {
    return state_.queue.len - (state_.busy ? 1 : 0);
  }

  /// Ids of the last two distinct probers (kInvalidNode when unknown).
  const std::array<net::NodeId, 2>& last_probers() const noexcept {
    return state_.last_probers;
  }

  // INetworkClient:
  void on_message(const net::Message& msg) final;

 protected:
  /// Fill the protocol-specific reply payload for a probe that arrived at
  /// time `t`. The base class has already prepared kind/from/to/cycle/
  /// attempt/last_probers.
  virtual void fill_reply(const net::Message& probe, double t,
                          net::Message& reply) = 0;

  /// Hook for subclasses needing per-probe state (e.g. load measurement).
  virtual void on_probe_accepted(const net::Message& /*probe*/,
                                 double /*t*/) {}

  des::Simulation& sim() noexcept { return sim_; }
  net::Network& network() noexcept { return network_; }
  ProtocolObserver* observer() noexcept { return observer_; }
  void notify_delta_changed(std::uint64_t delta);

 private:
  void record_prober(net::NodeId cp);
  void start_service();

  DeviceState state_;  ///< first: shares the vptr's cache line
  des::Simulation& sim_;
  net::Network& network_;
  EntityArena& arena_;
  ProtocolObserver* observer_;
  net::NodeId id_ = net::kInvalidNode;
  ComputeConfig compute_;
  util::Rng compute_rng_;
};

}  // namespace probemon::core
