// Common control-point behaviour shared by SAPP and DCPP CPs.
//
// A CP runs on a two-interface port: a des::Clock for time and its one
// timer, and a net::Link to send and receive. In the simulator these
// are des::Simulation and net::Network; on the reactor they are
// runtime::EventLoop and runtime::AsyncUdpTransport. So both engines
// run this one implementation of the protocol.
//
// A CP monitors exactly one device (the paper studies one device and k
// CPs; device/CP groups are independent, section 3). The base class owns
// the bounded-retransmission probe cycle, absence bookkeeping, and the
// optional gossip dissemination of leave events over the
// last-two-probers overlay. Subclasses decide one thing: how long to
// wait after a successful cycle (SAPP: adaptive; DCPP: the device's
// grant).
//
// A CP has exactly one timer — one pending scheduler event at most.
// While a cycle is active it is the probe timeout; otherwise it is the
// delay until the next cycle starts. The two never overlap, so the CP
// stores one event id rather than two timers and their callbacks.
//
// Each event — the timer firing, or a message arriving — reads the
// clock once. That instant t starts the cycle, stamps every observer
// call, is SAPP's load observation and re-arms the timer at t + delay
// (des/clock.hpp: on the reactor every now() is a steady-clock read).
//
// Mutable monitoring state (running flag, presence verdict, absence
// time, current delay, the overlay, the failure policy) is the object's
// first member, right after the vptr, followed by what every reply and
// timer touches — the timer's event id, the addresses, the cycle FSM.
// Each event finds them in lines it prefetched a few events ahead
// (des/scheduler.hpp): a reply's delivery loads the CP's first four
// lines, the timer event every line of the base. The protocol constants
// are not among them: the FSM and the subclasses hold pointers to their
// EntityArena's shared copies, which a fleet's events keep in cache, so
// a SAPP CP and its adaptation state fit in those four lines.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

#include "core/config.hpp"
#include "core/entity_arena.hpp"
#include "core/observer.hpp"
#include "core/probe_cycle.hpp"
#include "des/clock.hpp"
#include "net/link.hpp"
#include "util/prefetch.hpp"

namespace probemon::core {

/// All mutable monitoring state of one control point.
struct CpState {
  double absence_time = std::numeric_limits<double>::quiet_NaN();
  double current_delay = std::numeric_limits<double>::quiet_NaN();
  /// Overlay neighbours learned from reply piggyback data, oldest first;
  /// only the first `overlay_count` entries are meaningful.
  std::array<net::NodeId, 4> overlay{};
  std::uint8_t overlay_count = 0;
  std::uint8_t dissemination_ttl = 0;
  bool running = false;
  bool device_present = true;
  bool notified_peers = false;
  /// Keep probing after declaring the device absent (the config's flag).
  bool continue_after_absence = false;
};

class ControlPointBase : public net::INetworkClient {
 public:
  ControlPointBase(des::Clock& clock, net::Link& link, EntityArena& arena,
                   net::NodeId device, const TimeoutConfig& timeouts,
                   bool continue_after_absence, ProtocolObserver* observer);
  ~ControlPointBase() override;

  ControlPointBase(const ControlPointBase&) = delete;
  ControlPointBase& operator=(const ControlPointBase&) = delete;

  net::NodeId id() const noexcept { return id_; }
  net::NodeId device() const noexcept { return device_; }

  /// Begin monitoring: the first probe cycle starts `initial_jitter`
  /// seconds from now (jitter desynchronizes joining bursts).
  void start(double initial_jitter = 0.0);

  /// Leave the network: abort any cycle, cancel timers, detach.
  void stop();

  bool running() const noexcept { return state_.running; }
  /// False once this CP has declared or learned the device's absence.
  bool device_considered_present() const noexcept {
    return state_.device_present;
  }
  /// Time the CP declared/learned absence (NaN while present).
  double absence_time() const noexcept { return state_.absence_time; }

  /// Most recent inter-cycle delay (NaN before the first success).
  double current_delay() const noexcept { return state_.current_delay; }

  const ProbeCycle& cycle() const noexcept { return cycle_; }

  /// Enable gossip forwarding of absence notifications with the given
  /// forwarding budget (extension; the paper mentions but does not
  /// analyze the dissemination phase).
  void enable_dissemination(std::uint8_t ttl) {
    state_.dissemination_ttl = ttl;
  }

  /// Overlay neighbours learned from reply piggyback data.
  std::span<const net::NodeId> overlay_neighbors() const noexcept {
    return {state_.overlay.data(), state_.overlay_count};
  }

  // INetworkClient:
  void on_message(const net::Message& msg) final;

 protected:
  /// Inter-cycle delay to apply after a successful cycle; `t` is the
  /// reply's arrival instant.
  virtual double delay_after_success(const net::Message& reply,
                                     double t) = 0;
  /// Delay before re-probing after a failed cycle when
  /// continue_after_absence is set.
  virtual double delay_after_failure() = 0;
  /// A reply from the device that did not complete the current cycle —
  /// a duplicate (the device answers every probe, so a retransmitted
  /// cycle yields several replies) or a leftover from an abandoned
  /// cycle. SAPP's load estimator consumes these (the paper phrases the
  /// L_exp rule over successive *replies*); default ignores them. `t`
  /// is the reply's arrival instant.
  virtual void on_stale_reply(const net::Message& /*reply*/, double /*t*/) {}

  ProtocolObserver* observer() noexcept { return observer_; }
  /// Where a subclass interns its own config, and releases it in its
  /// destructor.
  EntityArena& arena() noexcept { return arena_; }

 private:
  /// The one timer's event. It captures the CP alone, and when the
  /// scheduler's dispatch pipeline asks, it starts loading the cache
  /// lines the timer's handler reads (des/scheduler.hpp).
  struct TimerFire {
    ControlPointBase* cp;
    void operator()() const { cp->on_timer(); }
    void prefetch() const noexcept {
      util::prefetch_range(cp, sizeof(ControlPointBase));
    }
  };

  // `t` below is the current event's one clock read.
  void arm(double deadline);
  void disarm();
  void on_timer();
  void begin_cycle(double t);
  void transmit(double t);
  void cancel_cycle();
  void handle_success(const net::Message& reply, double t);
  void handle_failure(double t);
  void mark_absent(double t, bool learned);
  void disseminate(net::NodeId subject, std::uint8_t ttl);
  void learn_overlay(const net::Message& reply);
  void schedule_cycle(double t, double delay);

  CpState state_;  ///< first: shares the vptr's cache line
  des::Clock& clock_;
  net::Link& link_;
  ProtocolObserver* observer_;
  /// The one timer: the probe timeout while cycle_ is active, else the
  /// delay until the next cycle.
  des::EventId timer_;
  net::NodeId device_;
  net::NodeId id_ = net::kInvalidNode;
  ProbeCycle cycle_;  ///< reads the arena's shared TimeoutConfig
  EntityArena& arena_;
};

}  // namespace probemon::core
