// InvariantAuditor: continuous mechanical checking of the paper's
// protocol invariants against the live event stream.
//
// The repo's tests assert *outcomes* (detection latency, load figures);
// nothing asserted the *mechanisms* — a refactor could break DCPP's
// schedule monotonicity or SAPP's delay clamp while every outcome test
// still passed on its particular scenarios. The auditor closes that
// gap: it implements core::ProtocolObserver, attaches to the same
// fan-out as scenario::Metrics (every DES Experiment attaches one by
// default), and audits every event against the invariant catalogue in
// docs/static_analysis.md:
//
//   * dcpp_nt_monotone      — the device's schedule frontier nt never
//                             regresses (paper §4: nt' = max{nt,t} + Δ);
//   * dcpp_grant_formula    — every granted wait equals
//                             Δ(nt,t) = max{δ_min, d_min − (nt − t)}
//                             applied to the frontier, is ≥ d_min, and
//                             consecutive slots are ≥ δ_min apart
//                             (paper §4 constraints (i) and (ii));
//   * sapp_delay_clamp      — the CP's inter-cycle delay stays inside
//                             [δ_min, δ_max] (paper §2 eq. 1); all
//                             protocols: delays are finite and ≥ 0;
//   * cycle_order           — probe attempts within a cycle are
//                             consecutive, starting at 0 (paper Fig 1:
//                             TOF then TOS retransmissions);
//   * cycle_overrun         — a cycle sends at most
//                             1 + max_retransmissions probes (paper: 4);
//   * absence_not_exhausted — absence is declared only after a cycle
//                             exhausted every retransmission;
//   * device_load           — sliding-window experienced load stays
//                             ≤ β·L_nom (opt-in; statistical, unlike
//                             the exact checks above);
//   * counter_consistency   — a device never receives more probes than
//                             were sent to it;
//   * trace_shape           — probe-cycle trace records are well formed
//                             (send instants ordered, attempts in
//                             range, ring indices in bounds).
//
// Violations are counted per invariant — locally (violations(),
// total_violations()) and, when a telemetry::Registry is supplied, as
//   probemon_invariant_violations_total{invariant="..."}
// so they surface on /metrics and /healthz. The auditor never aborts by
// itself; in PROBEMON_CHECKED builds scenario::Experiment::finish()
// turns a non-zero tally into a PROBEMON_INVARIANT failure.
//
// Storage: one CycleState per control point and one DeviceState per
// device, in util::FlatIdMap tables keyed by NodeId, so each hook
// reaches its records with one hash probe and no node hop. The opt-in
// load window keeps its receive instants in a side table that only
// on_probe_received touches, and only when load_l_nom > 0.
//
// Thread-safety: the observer hooks are confined to the one thread
// that feeds them — a DES run, or a reactor's loop thread — as every
// core::ProtocolObserver is on both engines, so they take no lock and
// their tables are unguarded. Feeding one auditor from two threads at
// once is a data race. The results are safe from any thread while the
// hooks run: the tallies are atomic and the reports ring has its own
// lock, so /healthz, summary(), recent_reports() and the violation
// counts can be read elsewhere; audit_cycle()/audit_tracer() touch
// only those and are safe from any thread too. The auditor must see
// the *complete* event stream of the system it audits
// (counter_consistency compares sends against receives), which is what
// Experiment's fan-out provides.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/observer.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/flat_id_map.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::check {

/// The audited invariant catalogue (docs/static_analysis.md).
enum class Invariant : std::size_t {
  kDcppNtMonotone = 0,
  kDcppGrantFormula,
  kSappDelayClamp,
  kCycleOrder,
  kCycleOverrun,
  kAbsenceNotExhausted,
  kDeviceLoad,
  kCounterConsistency,
  kTraceShape,
  kCount_,  ///< sentinel
};

inline constexpr std::size_t kInvariantCount =
    static_cast<std::size_t>(Invariant::kCount_);

/// Stable label value used in probemon_invariant_violations_total.
const char* to_string(Invariant invariant) noexcept;

/// What to audit; enable the parts matching the protocol under test.
struct AuditConfig {
  /// Probe-cycle shape bound (1 + max_retransmissions sends per cycle).
  core::TimeoutConfig timeouts{};

  /// Audit the DCPP schedule (on_slot_granted events) against `dcpp`.
  bool audit_dcpp = false;
  core::DcppDeviceConfig dcpp{};

  /// Audit CP inter-cycle delays against [delta_min, delta_max]
  /// (SAPP's clamp). Delays are always checked finite and >= 0.
  bool audit_delay_clamp = false;
  double delta_min = 0.02;
  double delta_max = 10.0;

  /// Sliding-window experienced-load audit: the device must see at most
  /// load_beta * load_l_nom probes/s averaged over load_window seconds
  /// (+ load_slack_probes absolute headroom for arrival jitter and
  /// join transients). 0 disables. Unlike the exact checks, this one is
  /// statistical: enable it for steady-state reference scenarios, not
  /// for deliberate-overload baselines (FixedRate).
  double load_l_nom = 0.0;
  double load_beta = 1.5;
  double load_window = 30.0;
  int load_slack_probes = 8;

  /// Floating-point comparison tolerance.
  double epsilon = 1e-9;
};

class InvariantAuditor final : public core::ProtocolObserver {
 public:
  /// When `registry` is non-null, registers one
  /// probemon_invariant_violations_total{invariant=...} counter per
  /// catalogue entry; the registry must outlive the auditor.
  explicit InvariantAuditor(AuditConfig config = {},
                            telemetry::Registry* registry = nullptr);

  const AuditConfig& config() const noexcept { return config_; }

  // --- core::ProtocolObserver (DES + any observer fan-out) ------------------
  void on_probe_sent(net::NodeId cp, net::NodeId device, double t,
                     std::uint8_t attempt) override;
  void on_probe_received(net::NodeId device, net::NodeId cp,
                         double t) override;
  void on_cycle_success(net::NodeId cp, net::NodeId device, double t,
                        std::uint8_t attempts) override;
  void on_delay_updated(net::NodeId cp, double t, double delay) override;
  void on_device_declared_absent(net::NodeId cp, net::NodeId device,
                                 double t) override;
  void on_slot_granted(net::NodeId device, double t, double nt_before,
                       double nt_after) override;

  // --- recorded traces -------------------------------------------------------
  /// Audit one completed probe-cycle span, e.g. a ProbeCycleTracer
  /// record: shape, attempt bound, exhaustion-before-absence. (The
  /// reactor's control points are audited live through the observer
  /// hooks above, like the DES ones.)
  void audit_cycle(const telemetry::ProbeCycleTrace& trace);

  /// Audit a tracer's ring bookkeeping (indices in range: retained
  /// count within capacity, recorded total consistent).
  void audit_tracer(const telemetry::ProbeCycleTracer& tracer);

  // --- results --------------------------------------------------------------
  std::uint64_t violations(Invariant invariant) const noexcept;
  std::uint64_t total_violations() const noexcept;

  /// Most recent violation diagnostics, oldest first (bounded ring).
  std::vector<std::string> recent_reports() const
      PROBEMON_EXCLUDES(reports_mutex_);

  /// Human-readable per-invariant tally, e.g. for an abort diagnostic.
  std::string summary() const;

 private:
  struct CycleState {
    bool open = false;
    std::uint8_t last_attempt = 0;
    int sends = 0;
  };
  struct DeviceState {
    std::uint64_t probes_sent_to = 0;
    std::uint64_t probes_received = 0;
    double frontier = 0.0;  ///< last granted slot instant
    bool frontier_known = false;
  };

  void record(Invariant invariant, std::string detail)
      PROBEMON_EXCLUDES(reports_mutex_);
  int max_sends() const noexcept {
    return config_.timeouts.max_retransmissions + 1;
  }

  AuditConfig config_;
  std::array<std::atomic<std::uint64_t>, kInvariantCount> counts_{};
  std::array<telemetry::Counter*, kInvariantCount> registry_counts_{};

  /// The feeding thread's own: no other thread reads them.
  util::FlatIdMap<CycleState> cycles_;
  util::FlatIdMap<DeviceState> devices_;
  /// Receive instants inside the load window, per device (load_l_nom
  /// > 0 only).
  std::unordered_map<net::NodeId, std::deque<double>> load_windows_;
  /// Guards the ring, which readers on other threads copy out.
  mutable util::Mutex reports_mutex_{"check.InvariantAuditor.reports"};
  /// Bounded diagnostics, oldest first (record() only). A vector, not
  /// a deque: violations are rare, and an empty libstdc++ deque
  /// allocates ~600 B in every auditor.
  std::vector<std::string> reports_ PROBEMON_GUARDED_BY(reports_mutex_);
};

}  // namespace probemon::check
