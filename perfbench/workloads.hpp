// perfbench workloads and the metric catalogue they report.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< wall-clock measurement budget
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string out_dir;    ///< where a traced run writes its spans
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every untraced run reports all of them, and only
/// them.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"sim_cycles_per_s", "cycles/s"},
      {"cpu_us_per_cycle", "us"},
      {"detect_p50_ms", "ms"},
      {"detect_p99_ms", "ms"},
      {"bytes_per_entity", "B"},
      {"success_share", "ratio"},
  };
  return kSpecs;
}

/// Per-layer metrics: every traced run reports all of them, and only
/// them; a layer the workload does not run reports 0.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      // des
      {"des.events_per_cycle", "count"},
      {"des.ns_per_event_p50", "ns"},
      {"des.ns_per_event_p99", "ns"},
      {"des.events.cycle_start", "count"},
      {"des.events.retransmit", "count"},
      {"des.events.delivery", "count"},
      {"des.events.device_service", "count"},
      {"des.events.reply", "count"},
      {"des.events.other", "count"},
      {"des.ns.cycle_start", "ns"},
      {"des.ns.retransmit", "ns"},
      {"des.ns.delivery", "ns"},
      {"des.ns.device_service", "ns"},
      {"des.ns.reply", "ns"},
      {"des.ns.other", "ns"},
      {"des.queue_high_water", "count"},
      {"des.pool_slots", "count"},
      {"des.coarse_resident", "count"},
      {"des.overflow_resident", "count"},
      // net
      {"net.deliveries_per_cycle", "count"},
      {"net.mean_in_flight", "count"},
      {"net.message_pool_slots", "count"},
      {"net.dropped_overflow", "count"},
      {"net.dropped_loss", "count"},
      // core
      {"core.probes_per_cycle", "count"},
      {"core.arena_device_slots", "count"},
      {"core.arena_cp_slots", "count"},
      {"core.queue_pool_high_water", "count"},
      {"core.cp_joins", "count"},
      {"core.cp_leaves", "count"},
      // observers (scenario / check / stats)
      {"observer.callbacks_per_cycle", "count"},
      {"check.violations", "count"},
      // runtime/event_loop
      {"loop.busy_ratio", "ratio"},
      {"loop.user_us_per_cycle", "us"},
      {"loop.sys_us_per_cycle", "us"},
      {"loop.wakeups_per_cycle", "count"},
      {"loop.dispatches_per_cycle", "count"},
      {"loop.timers_per_cycle", "count"},
      {"loop.timer_late_p50_us", "us"},
      {"loop.timer_late_p99_us", "us"},
      // runtime/event_loop async_udp
      {"udp.datagrams_per_cycle", "count"},
      {"udp.datagrams_per_dispatch", "count"},
      {"udp.kernel_rx_drops", "count"},
      {"udp.errors", "count"},
      {"udp.unroutable", "count"},
      // presence service / control points
      {"cp.probes_per_cycle", "count"},
      {"presence.absent_watches", "count"},
      {"presence.events", "count"},
      // telemetry
      {"telemetry.scrape_ms", "ms"},
      {"telemetry.scrape_bytes", "B"},
      {"telemetry.series", "count"},
      // the run itself. Reply latency does not repeat within a tenth on
      // rt_monitor on a shared host (a neighbour slowing the loop's core
      // moves it several-fold), so it is reported here, not end to end.
      {"reply_p50_ms", "ms"},
      {"reply_p99_ms", "ms"},
      {"fail_share", "ratio"},
      {"samples.reply", "count"},
      {"samples.detect", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"host.nproc", "count"},
      {"host.calibration_mops", "Mops/s"},
  };
  return kSpecs;
}

/// Set a catalogued metric; the report takes its unit from the catalogue.
inline void put(Result& result, const std::string& name, double value) {
  result.set(name, value, "");
}

/// <prefix>_p50_ms, <prefix>_p99_ms and samples.<prefix> from latency
/// samples in ms. The p99 follows the ten-samples-beyond rule; stderr
/// names the percentile actually reported.
inline void put_latencies(Result& result, const std::string& prefix,
                          const std::vector<double>& samples_ms) {
  const TailSummary s = summarize_tail(samples_ms);
  put(result, prefix + "_p50_ms", s.p50);
  put(result, prefix + "_p99_ms", s.tail);
  put(result, "samples." + prefix, static_cast<double>(s.n));
  std::fprintf(stderr, "perfbench: %s: n=%llu p50=%.4f ms p%g=%.4f ms\n",
               prefix.c_str(), static_cast<unsigned long long>(s.n), s.p50,
               100.0 * s.tail_q, s.tail);
}

/// Throughput and CPU cost are taken per slice of a run (a simulated
/// slice, a replication pair, a quarter second of the reactor). A shared
/// host slows a run for seconds at a time — a neighbour contending for
/// the core's caches halves a cache-resident workload — so the median
/// of slices moves with the share of the run that was disturbed. The
/// rate the run sustains undisturbed does not: report the 90th
/// percentile of slice rates and the 10th percentile of slice costs.
constexpr double kSustainedQuantile = 0.9;
inline double sustained_rate(std::vector<double> rates) {
  return percentile(rates, kSustainedQuantile);
}
inline double sustained_cost(std::vector<double> costs) {
  return percentile(costs, 1.0 - kSustainedQuantile);
}

/// Ratio with a zero-safe denominator.
inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void run_des_fleet(const RunOptions& options, Result& result, SpanLog& spans);
void run_des_paper(const RunOptions& options, Result& result, SpanLog& spans);
void run_rt_monitor(const RunOptions& options, Result& result, SpanLog& spans);

}  // namespace perfbench
