// Experiment driver: one device, a dynamic population of CPs, a network,
// and a Metrics collector, wired exactly like the paper's studies
// ("the entire model ... consists of the parallel composition of a number
// of CPs, one device, and a network process").
#pragma once

// Config-time factories below are the one sanctioned std::function use:
// they run once at Experiment construction, never per event.
#include <functional>  // NOLINT(no-std-function)
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/observer_fanout.hpp"
#include "core/probemon.hpp"
#include "scenario/metrics.hpp"
#include "scenario/sweep.hpp"

namespace probemon::scenario {

enum class Protocol {
  kSapp,
  kDcpp,
  /// Naive fixed-period probing — the strawman the paper's intro
  /// dismisses; kept as the experimental baseline (bench A12). Uses a
  /// SAPP device (the pc payload is simply ignored by the CPs).
  kFixedRate,
};

const char* to_string(Protocol protocol) noexcept;

struct ExperimentConfig {
  Protocol protocol = Protocol::kSapp;
  std::uint64_t seed = 1;
  std::size_t initial_cps = 20;

  core::SappDeviceConfig sapp_device{};
  core::SappCpConfig sapp_cp{};
  core::DcppDeviceConfig dcpp_device{};
  core::DcppCpConfig dcpp_cp{};
  core::FixedRateCpConfig fixed_cp{};

  net::NetworkConfig network{};
  MetricsConfig metrics{};

  /// DES kernel selection (timer-wheel vs reference-heap backend, wheel
  /// geometry). The equivalence tests run identical experiments on both
  /// backends and diff the traces.
  des::SchedulerConfig scheduler{};

  /// Network model factories; defaults: paper three-mode delay, no loss.
  /// Invoked once per Experiment at construction — setup code, not the
  /// per-event path, so the type-erased callable's allocation is fine.
  std::function<net::DelayModelPtr()> delay_factory;  // NOLINT(no-std-function)
  std::function<net::LossModelPtr()> loss_factory;  // NOLINT(no-std-function)

  /// Max start jitter for joining CPs. CPs power on at independent
  /// moments in any real network, and a strictly synchronous start
  /// stampedes the serial device (every first probe of a 20-CP burst
  /// queues behind up to 0.2 s of computation, blowing the TOF budget).
  /// Set to 0 to reproduce the paper's deliberate worst-case synchronous
  /// joins (Fig 5), which stay answerable because DCPP replies are cheap.
  double join_jitter_max = 1.0;

  /// Gossip absence notifications over the overlay (extension).
  bool dissemination = false;
  std::uint8_t dissemination_ttl = 2;

  /// Attach a check::InvariantAuditor to the protocol event stream,
  /// auditing the paper's exact invariants for the configured protocol
  /// (DCPP grant formula / nt monotonicity, SAPP delay clamp, probe-
  /// cycle shape; see docs/static_analysis.md). Violations are counted
  /// on auditor(); in PROBEMON_CHECKED builds finish() aborts with the
  /// tally if any were recorded.
  bool audit_invariants = true;

  /// Additionally audit the device's sliding-window experienced load
  /// (<= beta * L_nom probes/s over this many seconds). 0 disables —
  /// the default, because unlike the exact checks this one is
  /// statistical: join bursts legitimately overshoot on short windows,
  /// and the FixedRate baseline overloads by design.
  double audit_load_window = 0.0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Attach an additional protocol-event sink (e.g. a trace::EventLog)
  /// alongside the built-in Metrics. The sink must outlive the
  /// experiment; events flow to it from the moment of the call.
  void add_observer(core::ProtocolObserver& observer) {
    fanout_.add(&observer);
  }

  des::Simulation& sim() noexcept { return sim_; }
  net::Network& network() noexcept { return *network_; }
  core::EntityArena& entities() noexcept { return entities_; }
  const core::EntityArena& entities() const noexcept { return entities_; }
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }

  /// The attached invariant auditor (nullptr when
  /// config.audit_invariants is false).
  check::InvariantAuditor* auditor() noexcept { return auditor_.get(); }
  const check::InvariantAuditor* auditor() const noexcept {
    return auditor_.get();
  }
  core::DeviceBase& device() noexcept { return *device_; }
  const ExperimentConfig& config() const noexcept { return config_; }

  // --- CP population control ----------------------------------------------
  /// Create and start a new CP; returns its network id.
  net::NodeId add_cp();
  /// Remove a uniformly random active CP.
  void remove_random_cp();
  /// Remove a specific CP (no-op if not active).
  void remove_cp(net::NodeId id);
  /// Join/leave CPs until `n` are active (leavers picked at random).
  void set_active_cp_count(std::size_t n);

  std::size_t active_cp_count() const noexcept { return cps_.size(); }
  std::vector<net::NodeId> active_cp_ids() const;
  /// Active CP by id (nullptr if departed / unknown).
  const core::ControlPointBase* cp(net::NodeId id) const;

  /// Ids of the initially created CPs, in creation order — lets figure
  /// code label them cp_01, cp_02, ... like the paper's plots.
  const std::vector<net::NodeId>& initial_cp_ids() const noexcept {
    return initial_cp_ids_;
  }

  // --- Scripting ------------------------------------------------------------
  /// Schedule the device to depart at time t (silently by default);
  /// also informs Metrics so detection latencies can be computed.
  void schedule_device_departure(double t, bool graceful = false);

  /// Install a churn model (see churn.hpp); the experiment owns it.
  /// The model's install() is invoked immediately.
  class ChurnModel;
  void install_churn(std::unique_ptr<ChurnModel> churn);

  // --- Running ----------------------------------------------------------------
  /// Advance virtual time to t.
  void run_until(double t);
  /// Flush windowed metrics at the current time. Call once after the
  /// final run_until.
  void finish();

 private:
  ExperimentConfig config_;
  des::Simulation sim_;
  Metrics metrics_;
  std::unique_ptr<check::InvariantAuditor> auditor_;
  core::FanoutObserver fanout_;
  /// Declared before the entities that index into it: wrappers release
  /// their arena slots on destruction.
  core::EntityArena entities_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<core::DeviceBase> device_;
  std::map<net::NodeId, std::unique_ptr<core::ControlPointBase>> cps_;
  std::vector<net::NodeId> initial_cp_ids_;
  std::vector<std::unique_ptr<ChurnModel>> churn_;
  util::Rng churn_rng_;
  util::Rng jitter_rng_;
};

/// Batch entry point: run one Experiment per config in parallel on
/// `runner` (run_until(duration) + finish()), then reduce each finished
/// experiment to an R via `collect`. Results come back in config order,
/// so output is thread-count-invariant; each job builds its whole world
/// (scheduler, RNG streams, network, auditor) from its config alone.
template <class R, class Collect>
std::vector<R> run_experiment_batch(SweepRunner& runner,
                                    const std::vector<ExperimentConfig>& configs,
                                    double duration, Collect&& collect,
                                    telemetry::Registry* merge_into = nullptr) {
  return runner.map<R>(
      configs.size(),
      [&](std::size_t job, SweepWorkerContext& ctx) {
        Experiment exp(configs[job]);
        exp.run_until(duration);
        exp.finish();
        return collect(exp, ctx);
      },
      merge_into);
}

/// Strategy that drives CP joins/leaves over an experiment's lifetime.
class Experiment::ChurnModel {
 public:
  virtual ~ChurnModel() = default;
  /// Schedule the model's activity on exp.sim(). Called once.
  virtual void install(Experiment& exp) = 0;
  virtual std::string describe() const = 0;
};

}  // namespace probemon::scenario
