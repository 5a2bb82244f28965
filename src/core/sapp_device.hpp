// SAPP device (paper section 2, "Device behavior").
//
// Maintains a probe counter pc, incremented by Delta = L_ideal / L_nom on
// every probe; the reply carries the just-updated pc. CPs derive their
// experienced load from consecutive pc values, so Delta is the device's
// lever for slowing everyone down: doubling Delta makes the device look
// twice as busy.
//
// The optional overload-control extension implements exactly that lever:
// the device measures its own recent probe load and doubles/halves Delta
// when the load leaves [L_nom/f, f*L_nom], re-evaluating on a timer on
// the device's clock.
#pragma once

#include <cstdint>
#include <memory>

#include "core/device_base.hpp"

namespace probemon::core {

template <class Server>
class BasicSappDevice : public BasicDevice<Server> {
 public:
  /// Where adaptive doubling stops (a prober that never backs off would
  /// otherwise double Delta until uint64_t wraps to 0). Above
  /// beta * L_ideal * delta_max (1.5e7 with the paper's values) every
  /// SAPP CP already sits at delta_max, so a larger Delta changes
  /// nothing; 2^32 is far above that and far below where a CP's
  /// pc' - pc, taken as a double, stops being exact.
  static constexpr std::uint64_t kDeltaCeiling = std::uint64_t{1} << 32;

  BasicSappDevice(typename Server::Clock& clock, net::Link& link,
                  EntityArena& arena, SappDeviceConfig config,
                  ProtocolObserver* observer = nullptr);
  ~BasicSappDevice() override;

  /// The arena's shared copy of the config this device was built with.
  const SappDeviceConfig& config() const noexcept { return *config_; }
  std::uint64_t probe_counter() const noexcept { return pc_; }
  std::uint64_t delta() const noexcept { return delta_; }

  /// Manually change Delta (e.g. to script a "device got busy" event).
  void set_delta(std::uint64_t delta);

  /// Probe load measured by the device itself over the adapt window (0
  /// without adaptive_delta).
  double measured_load() const;

 protected:
  void fill_reply(const net::Message& probe, double t,
                  net::Message& reply) final;
  void on_probe_accepted(const net::Message& probe, double t) final;

 private:
  struct Adaptation;

  void arm_adaptation();
  void adapt_delta();

  const SappDeviceConfig* config_;
  std::uint64_t pc_ = 0;
  std::uint64_t delta_;
  /// Load window and evaluation timer; only with adaptive_delta.
  std::unique_ptr<Adaptation> adaptation_;
};

/// The simulator's SAPP device.
using SappDevice = BasicSappDevice<SerialServer>;

}  // namespace probemon::core
