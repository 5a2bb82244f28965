// MetricsPusher: the agent side of the push topology (collector.hpp).
//
// Wraps a local Registry and POSTs its state to a collector's /push
// route as JSON, once per push_once() call, on the caller's cadence:
//
//   {"agent": "node-7", "full": false, "metrics": [ ...changed... ]}
//
// Report contents ride the store's delta-scrape mechanism
// (Registry::snapshot_delta): the first report — and the first
// report after any failed push — carries the full absolute state
// (full=true, so the collector resynchronizes and drops series the
// agent no longer has); every other report carries only series whose
// value changed since the last report. A tick with nothing changed
// sends nothing at all.
//
// The pusher's own bookkeeping (pushes_ok etc.) deliberately lives in
// plain atomics, not in the pushed store — otherwise every report
// would dirty a series and no delta would ever be empty.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::runtime {

class MetricsPusher {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;     ///< collector port (required)
    std::string path = "/push";
    std::string agent;          ///< report identity (required)
    double timeout_s = 2.0;     ///< per-request socket timeout
  };

  /// `store` must outlive the pusher. Throws std::invalid_argument on
  /// an empty agent id or zero port.
  MetricsPusher(const telemetry::Registry& store, Config config);

  MetricsPusher(const MetricsPusher&) = delete;
  MetricsPusher& operator=(const MetricsPusher&) = delete;

  /// One synchronous report. Returns true on success (including the
  /// nothing-changed case where no request is sent). Safe from any
  /// thread.
  bool push_once() PROBEMON_EXCLUDES(mutex_);

  std::uint64_t pushes_ok() const noexcept {
    return ok_.load(std::memory_order_relaxed);
  }
  std::uint64_t pushes_failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }
  std::uint64_t pushes_skipped() const noexcept {
    return skipped_.load(std::memory_order_relaxed);
  }

 private:
  const telemetry::Registry& store_;
  const Config config_;
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> skipped_{0};  ///< empty deltas not sent
  util::Mutex mutex_{"runtime.MetricsPusher"};
  /// delta cursor into store_
  std::uint64_t since_ PROBEMON_GUARDED_BY(mutex_) = 0;
  /// first report / resync after failure
  bool need_full_ PROBEMON_GUARDED_BY(mutex_) = true;
};

}  // namespace probemon::runtime
