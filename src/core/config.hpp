// Configuration of the probe protocols, with the paper's parameter values
// as defaults. Every struct validates itself via validate(), throwing
// std::invalid_argument with a descriptive message; an entity validates
// the config it is given before it reads or keeps any of it.
//
// The constants are the same across a fleet, so no entity keeps its own
// copy: it holds a pointer to the one copy its core::EntityArena
// interns. Two configs share that copy only when every field listed by
// fields() is bit-identical, doubles compared by bit pattern, so sharing
// never changes a computed value (-0.0 and 0.0 stay apart, as do two NaN
// payloads). A field added to a struct belongs in its fields() too.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <tuple>

namespace probemon::core {

/// Bounded-retransmission timing shared by both protocols (paper Fig 1).
struct TimeoutConfig {
  /// Timeout after the FIRST probe of a cycle: 2*RTT_max + compute_max.
  double tof = 0.022;
  /// Timeout after each retransmitted probe: RTT_max + compute_max.
  double tos = 0.021;
  /// Max retransmissions after the first probe (paper: 3 => 4 probes).
  int max_retransmissions = 3;

  auto fields() const noexcept {
    return std::tie(tof, tos, max_retransmissions);
  }

  void validate() const {
    if (!(tof > 0)) throw std::invalid_argument("TimeoutConfig: tof > 0");
    if (!(tos > 0)) throw std::invalid_argument("TimeoutConfig: tos > 0");
    if (max_retransmissions < 0) {
      throw std::invalid_argument("TimeoutConfig: max_retransmissions >= 0");
    }
  }
};

/// Device-side reply computation time: uniform in [min, max]. The paper's
/// timeout calibration implies compute_max = 0.020 s.
struct ComputeConfig {
  double min = 0.001;
  double max = 0.020;

  auto fields() const noexcept { return std::tie(min, max); }

  void validate() const {
    if (!(min >= 0 && max >= min)) {
      throw std::invalid_argument("ComputeConfig: 0 <= min <= max");
    }
  }
};

/// SAPP device parameters (paper section 2).
struct SappDeviceConfig {
  /// Reference constant known to all nodes; must be high. Paper: 1e6.
  double l_ideal = 1e6;
  /// Nominal probe load the device wants to sustain (probes/s). Paper: 10.
  double l_nom = 10.0;
  ComputeConfig compute{};

  // --- Optional overload-control extension (paper: "if the device finds
  // that it is getting too many probes, it can, say, double its value of
  // Delta") -----------------------------------------------------------------
  bool adaptive_delta = false;
  /// Measured load above overload_factor * l_nom doubles Delta;
  /// below l_nom / overload_factor halves it (never below the base value).
  double overload_factor = 1.5;
  /// How often the device re-evaluates its measured load (seconds).
  double adapt_period = 5.0;
  /// Load-measurement window (seconds).
  double adapt_window = 10.0;

  auto fields() const noexcept {
    return std::tuple_cat(std::tie(l_ideal, l_nom), compute.fields(),
                          std::tie(adaptive_delta, overload_factor,
                                   adapt_period, adapt_window));
  }

  /// Probe-counter increment: Delta = l_ideal / l_nom (paper: 1e5).
  /// Defined once validate() has passed.
  std::uint64_t delta() const {
    return static_cast<std::uint64_t>(l_ideal / l_nom);
  }

  void validate() const {
    compute.validate();
    if (!(l_ideal > 0)) throw std::invalid_argument("Sapp: l_ideal > 0");
    if (!(l_nom > 0)) throw std::invalid_argument("Sapp: l_nom > 0");
    if (!(l_ideal >= l_nom)) {
      throw std::invalid_argument("Sapp: l_ideal >> l_nom required");
    }
    // l_ideal >= l_nom > 0 puts the quotient at 1 or above; its cast to
    // Delta is defined only below 2^64.
    if (!(l_ideal / l_nom < 0x1p64)) {
      throw std::invalid_argument(
          "Sapp: delta = l_ideal / l_nom must fit std::uint64_t");
    }
    if (adaptive_delta) {
      if (!(overload_factor > 1)) {
        throw std::invalid_argument("Sapp: overload_factor > 1");
      }
      if (!(adapt_period > 0) || !(adapt_window > 0)) {
        throw std::invalid_argument("Sapp: adapt periods > 0");
      }
    }
  }
};

/// SAPP control-point parameters (paper section 2, "Adapting the probing
/// frequency"). Defaults are the values used in the paper's simulations.
struct SappCpConfig {
  TimeoutConfig timeouts{};
  /// Multiplicative delay increase on overload. Paper: 2.
  double alpha_inc = 2.0;
  /// Multiplicative delay decrease on underload. Paper: 3/2.
  double alpha_dec = 1.5;
  /// Load tolerance band: L_ideal/beta <= L_exp <= beta*L_ideal. Paper: 3/2.
  double beta = 1.5;
  /// Reference constant, same value as the device's. Paper: 1e6.
  double l_ideal = 1e6;
  /// Inter-probe-cycle delay bounds. Paper: 0.02 and 10.
  double delta_min = 0.02;
  double delta_max = 10.0;
  /// Delay used for the very first cycle(s), before any L_exp estimate
  /// exists. The paper leaves this open, but its Fig 2 frequency traces
  /// rise from near zero, so CPs evidently start politely at the maximal
  /// delay and work downward; a delta_min start would also stampede a
  /// serial device with 50 probes/s per CP.
  double initial_delay = 10.0;
  /// Feed every reply from the device into the L_exp estimator, not just
  /// the one that completes a probe cycle. The paper states the rule
  /// over successive replies ("The next reply is received at time
  /// t' > t"), and the device answers every probe — so the duplicate
  /// replies produced by a retransmitted cycle form (pc, t) pairs only
  /// milliseconds apart, yielding enormous L_exp spikes that double the
  /// CP's delay. This is a key driver of the starvation ratchet the
  /// paper observes; set false to use only cycle-completing replies.
  bool use_every_reply = true;
  /// Keep probing at delta_max after declaring the device absent (false:
  /// stop, which is what the analysis scenarios do).
  bool continue_after_absence = false;

  auto fields() const noexcept {
    return std::tuple_cat(
        timeouts.fields(),
        std::tie(alpha_inc, alpha_dec, beta, l_ideal, delta_min, delta_max,
                 initial_delay, use_every_reply, continue_after_absence));
  }

  void validate() const {
    timeouts.validate();
    if (!(alpha_inc > 1)) throw std::invalid_argument("SappCp: alpha_inc > 1");
    if (!(alpha_dec > 1)) throw std::invalid_argument("SappCp: alpha_dec > 1");
    if (!(beta > 1)) throw std::invalid_argument("SappCp: beta > 1");
    if (!(l_ideal > 0)) throw std::invalid_argument("SappCp: l_ideal > 0");
    if (!(delta_min > 0)) throw std::invalid_argument("SappCp: delta_min > 0");
    if (!(delta_max >= delta_min)) {
      throw std::invalid_argument("SappCp: delta_max >= delta_min");
    }
    if (!(initial_delay >= delta_min && initial_delay <= delta_max)) {
      throw std::invalid_argument(
          "SappCp: initial_delay within [delta_min, delta_max]");
    }
  }
};

/// DCPP device parameters (paper section 4).
struct DcppDeviceConfig {
  /// Min spacing between any two granted probe instants; 1/L_nom.
  /// Paper's analysis: 0.1 (L_nom = 10).
  double delta_min = 0.1;
  /// Min wait granted to a single CP; 1/f_max. Paper's analysis: 0.5.
  double d_min = 0.5;
  /// DCPP's reply is a handful of arithmetic operations ("intrinsic
  /// simplicity ... amenable to implementation in small computing
  /// devices"), so its computation time is two orders of magnitude below
  /// SAPP's 20 ms bound. This keeps the paper's worst case honest: a
  /// 60-CP synchronous join burst (60 * 0.175 ms ~ 11 ms) drains through
  /// the serial device within one TOF, so "every transmitted probe will
  /// eventually be answered" holds without retransmission storms.
  ComputeConfig compute{0.00005, 0.0003};

  auto fields() const noexcept {
    return std::tuple_cat(std::tie(delta_min, d_min), compute.fields());
  }

  double l_nom() const { return 1.0 / delta_min; }
  double f_max() const { return 1.0 / d_min; }

  void validate() const {
    compute.validate();
    if (!(delta_min > 0)) throw std::invalid_argument("Dcpp: delta_min > 0");
    if (!(d_min >= delta_min)) {
      throw std::invalid_argument("Dcpp: d_min >= delta_min");
    }
  }
};

/// DCPP control-point parameters. The delay between cycles comes from the
/// device, so only the retransmission timing and failure policy remain.
struct DcppCpConfig {
  TimeoutConfig timeouts{};
  bool continue_after_absence = false;

  auto fields() const noexcept {
    return std::tuple_cat(timeouts.fields(), std::tie(continue_after_absence));
  }

  void validate() const { timeouts.validate(); }
};

/// The naive baseline's control point (core::FixedRateControlPoint).
struct FixedRateCpConfig {
  TimeoutConfig timeouts{};
  /// Fixed inter-cycle delay (seconds). The UPnP-ish default of one
  /// probe per second per CP, the kind of value a naive implementor
  /// picks to satisfy "detect absence in the order of one second".
  double period = 1.0;
  bool continue_after_absence = false;

  auto fields() const noexcept {
    return std::tuple_cat(timeouts.fields(),
                          std::tie(period, continue_after_absence));
  }

  void validate() const {
    timeouts.validate();
    if (!(period > 0)) {
      throw std::invalid_argument("FixedRateCp: period > 0");
    }
  }
};

/// `config`, once it has passed its validate(): lets a constructor
/// validate in its member initialisers, before anything reads or keeps
/// the config.
template <class Config>
const Config& validated(const Config& config) {
  config.validate();
  return config;
}

}  // namespace probemon::core
