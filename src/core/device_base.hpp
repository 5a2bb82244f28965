// Common device behaviour shared by SAPP and DCPP devices.
//
// A device is attached to a link, answers probes while present, and can
// depart either gracefully (sends bye to recent probers) or silently
// (simply stops answering — the failure mode the probe protocols exist
// to detect). Like a control point it runs on a des::Clock + net::Link
// port (des::Simulation + net::Network, or runtime::EventLoop +
// runtime::AsyncUdpTransport), so both engines run one implementation.
//
// The device also tracks the last two *distinct* CPs that probed it and
// piggybacks their ids on every reply (paper section 2) — this is the
// overlay the dissemination extension uses.
//
// How a probe is served is part of the type. The simulator's
// SerialServer answers one probe at a time, FIFO, each after a uniform
// computation delay (the "maximal computation time of the device" in
// the paper's timeout calibration). On the reactor the loop is the
// server: InlineServer answers a probe as the loop reads it and holds
// nothing. on_message picks the path at compile time.
//
// All mutable protocol state is the object's first member, right after
// the vptr, followed by the port and the serial server's queue head,
// epoch and compute stream: an event touches one object, whose lines
// the event prefetched a few events ahead (des/scheduler.hpp: a probe's
// delivery loads the first four, the completion event the base's). The
// queued probes sit in the `core::EntityArena`'s shared node pool, so
// an idle device carries no deque and no heap node, and its configs are
// pointers to the arena's shared copies.
//
// On the reactor, go_silent(), come_back(), present() and
// probes_received() are safe from any thread; everything else is
// loop-confined.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>

#include "core/config.hpp"
#include "core/entity_arena.hpp"
#include "core/observer.hpp"
#include "des/clock.hpp"
#include "des/simulation.hpp"
#include "net/link.hpp"
#include "util/rng.hpp"

namespace probemon::core {

/// All mutable protocol state of one device. The atomics have a single
/// writer and are accessed with relaxed plain loads and stores, never a
/// locked read-modify-write, so the simulator pays nothing for them.
struct DeviceState {
  std::atomic<std::uint64_t> probes_received{0};
  /// Last two *distinct* probers, most recent first (overlay seed).
  std::array<net::NodeId, 2> last_probers{net::kInvalidNode,
                                          net::kInvalidNode};
  net::NodeId id = net::kInvalidNode;
  std::atomic<bool> present{true};
};

/// The simulator's device: a FIFO single server whose service time is
/// uniform in [compute.min, compute.max], drawn from a per-device stream
/// forked from the simulation's root RNG.
struct SerialServer {
  using Clock = des::Simulation;

  /// Reads the arena's shared copy of the device's ComputeConfig.
  SerialServer(des::Simulation& sim, EntityArena& arena,
               const ComputeConfig& config)
      : compute(&arena.intern(validated(config))),
        rng(sim.rng().fork("device.compute")) {}

  ServiceQueue queue;  ///< the probe in service included while `busy`
  bool busy = false;
  std::uint64_t epoch = 0;  ///< bumped on go_silent
  const ComputeConfig* compute;  ///< released by the device's destructor
  util::Rng rng;
};

/// The reactor's device: the loop is the server, and its own service
/// time the computation time, so ComputeConfig is ignored.
struct InlineServer {
  using Clock = des::Clock;

  InlineServer(des::Clock& /*clock*/, EntityArena& /*arena*/,
               const ComputeConfig& /*config*/) noexcept {}
};

template <class Server>
class BasicDevice : public net::INetworkClient {
 public:
  static constexpr bool kSerial = std::is_same_v<Server, SerialServer>;

  BasicDevice(typename Server::Clock& clock, net::Link& link,
              EntityArena& arena, const ComputeConfig& compute,
              ProtocolObserver* observer);
  ~BasicDevice() override;

  BasicDevice(const BasicDevice&) = delete;
  BasicDevice& operator=(const BasicDevice&) = delete;

  net::NodeId id() const noexcept { return state_.id; }
  bool present() const noexcept {
    return state_.present.load(std::memory_order_relaxed);
  }

  /// Crash-style departure: the device stays attached (so probes are
  /// still *delivered*) but never answers again.
  void go_silent();

  /// Graceful departure: sends bye to the last known probers, then goes
  /// silent.
  void leave_gracefully();

  /// Rejoin after a silent period.
  void come_back() noexcept {
    state_.present.store(true, std::memory_order_relaxed);
  }

  /// Total probes accepted since creation (including ones still queued
  /// for processing).
  std::uint64_t probes_received() const noexcept {
    return state_.probes_received.load(std::memory_order_relaxed);
  }

  /// Probes waiting for the device's single-threaded processor (the one
  /// in service excluded).
  std::size_t service_queue_length() const noexcept
    requires kSerial
  {
    return server_.queue.len - (server_.busy ? 1 : 0);
  }

  /// Ids of the last two distinct probers (kInvalidNode when unknown).
  const std::array<net::NodeId, 2>& last_probers() const noexcept {
    return state_.last_probers;
  }

  // INetworkClient:
  void on_message(const net::Message& msg) final;

 protected:
  /// Fill the protocol-specific reply payload for a probe served at time
  /// `t`. The base class has already prepared kind/from/to/cycle/
  /// attempt/last_probers.
  virtual void fill_reply(const net::Message& probe, double t,
                          net::Message& reply) = 0;

  /// Hook for subclasses needing per-probe state (e.g. load measurement).
  virtual void on_probe_accepted(const net::Message& /*probe*/,
                                 double /*t*/) {}

  des::Clock& engine_clock() noexcept { return clock_; }
  ProtocolObserver* observer() noexcept { return observer_; }
  /// Where a subclass interns its own config, and releases it in its
  /// destructor.
  EntityArena& arena() noexcept { return arena_; }
  void notify_delta_changed(std::uint64_t delta) {
    if (observer_) observer_->on_delta_changed(id(), clock_.now(), delta);
  }

 private:
  /// Build the reply to `probe` in the default Message `reply`.
  void answer(const net::Message& probe, double t, net::Message& reply);
  void start_service()
    requires kSerial;

  DeviceState state_;  ///< first: shares the vptr's cache line
  des::Clock& clock_;
  net::Link& link_;
  EntityArena& arena_;
  ProtocolObserver* observer_;
  [[no_unique_address]] Server server_;
};

/// The simulator's device base.
using DeviceBase = BasicDevice<SerialServer>;

}  // namespace probemon::core
