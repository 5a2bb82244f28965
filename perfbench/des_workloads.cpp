// The two discrete-event workloads.
//
// des_fleet — one simulation of a 300k-entity SAPP fleet (60k groups of
//   1 device + 4 CPs, three-mode delay, no loss), built like bench_scale
//   builds its fleet. At ~1 KB/entity the state is far larger than the
//   last-level cache, so scheduler wheel placement, Network delivery and
//   EntityArena layout dominate; observers see only 1 % canary CPs.
// des_paper — seeded replications back to back on one thread through
//   scenario::Experiment with Metrics and InvariantAuditor attached:
//   SAPP with 20 CPs (paper Fig 3) alternating with DCPP under CP churn
//   (Fig 5), Bernoulli loss and one scripted departure. The working set
//   fits in cache, so per-event CPU in core, the observers and
//   Experiment setup dominate; loss and churn make timeouts fire,
//   retransmit, declare absences and recycle arena slots — the opposite
//   use of des/core to the fleet, where nearly every timeout is
//   cancelled.
//
// Both workloads report "reply" and "detect" latencies in simulated
// (virtual) milliseconds: they are protocol outcomes, so a change that
// keeps the protocol intact keeps them, and one that alters it shows.
// Throughput and CPU are wall-clock.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/observer_fanout.hpp"
#include "core/probemon.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "scenario/churn.hpp"
#include "scenario/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace probemon;

constexpr int kSetupRepeats = 7;

// --- observers -------------------------------------------------------------

/// The benchmark's client view of a set of CPs: completed cycles, exact
/// reply latency (last send -> accepted reply, as the runtime's
/// CycleInfo.rtt) and absence verdicts.
class CycleRecorder final : public core::ProtocolObserver {
 public:
  void on_probe_sent(net::NodeId cp, net::NodeId, double t,
                     std::uint8_t attempt) override {
    last_send(cp) = t;
    if (attempt > 0 && t < count_until) ++retransmits_before;
  }
  void on_probe_received(net::NodeId, net::NodeId, double t) override {
    if (t < count_until) ++received_before;
  }
  void on_cycle_success(net::NodeId cp, net::NodeId, double t,
                        std::uint8_t) override {
    if (recording && successes % keep_every == 0) {
      rtts_ms.push_back((t - last_send(cp)) * 1e3);
    }
    ++successes;
  }
  void on_device_declared_absent(net::NodeId cp, net::NodeId,
                                 double t) override {
    absences.push_back({cp, t});
  }

  bool recording = false;
  std::uint64_t keep_every = 1;  ///< record every n-th reply latency
  std::uint64_t successes = 0;
  /// Probes received and retransmissions sent before count_until.
  double count_until = std::numeric_limits<double>::infinity();
  std::uint64_t received_before = 0;
  std::uint64_t retransmits_before = 0;
  std::vector<double> rtts_ms;
  std::vector<std::pair<net::NodeId, double>> absences;

 private:
  double& last_send(net::NodeId cp) {
    if (cp >= last_send_.size()) last_send_.resize(cp + 1, 0.0);
    return last_send_[cp];
  }
  std::vector<double> last_send_;
};

/// Splits DES time into event classes. The scheduler's execution probe
/// marks every event boundary; the protocol hooks that fire inside an
/// event (and the network counters it moved) name its class.
class EventClassifier final : public core::ProtocolObserver {
 public:
  enum Class { kCycleStart, kRetransmit, kDelivery, kDeviceService, kReply,
               kOther, kClassCount };
  static constexpr std::array<const char*, kClassCount> kNames = {
      "cycle_start", "retransmit", "delivery", "device_service", "reply",
      "other"};

  explicit EventClassifier(const net::NetworkCounters* counters)
      : counters_(counters) {}

  void on_probe_sent(net::NodeId, net::NodeId, double,
                     std::uint8_t attempt) override {
    ++callbacks;
    (attempt == 0 ? saw_start_ : saw_retransmit_) = true;
  }
  void on_probe_received(net::NodeId, net::NodeId, double) override {
    ++callbacks;
    saw_received_ = true;
  }
  void on_cycle_success(net::NodeId, net::NodeId, double,
                        std::uint8_t) override {
    ++callbacks;
    saw_reply_ = true;
  }
  void on_delay_updated(net::NodeId, double, double) override { ++callbacks; }
  void on_device_declared_absent(net::NodeId, net::NodeId, double) override {
    ++callbacks;
  }
  void on_absence_learned(net::NodeId, net::NodeId, double) override {
    ++callbacks;
  }
  void on_delta_changed(net::NodeId, double, std::uint64_t) override {
    ++callbacks;
  }
  void on_slot_granted(net::NodeId, double, double, double) override {
    ++callbacks;
  }

  /// Called immediately before each event (execution probe).
  void boundary() {
    const std::uint64_t t = clock_ns();
    close_at(t);
    open_ = true;
    start_ns_ = t;
    sent0_ = counters_->sent;
    delivered0_ = counters_->delivered;
  }
  /// Called when run_until returns: the last event of the slice ends.
  void close() {
    close_at(clock_ns());
    open_ = false;
  }

  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (auto c : events) n += c;
    return n;
  }

  std::uint64_t callbacks = 0;
  std::array<std::uint64_t, kClassCount> events{};
  std::array<std::uint64_t, kClassCount> ns{};
  std::vector<std::uint32_t> gaps_ns;

 private:
  static constexpr std::size_t kMaxGaps = std::size_t{1} << 23;

  static std::uint64_t clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  Class classify() const {
    if (saw_reply_) return kReply;
    if (saw_received_) return kDelivery;
    if (saw_start_) return kCycleStart;
    if (saw_retransmit_) return kRetransmit;
    if (counters_->delivered != delivered0_) return kDelivery;
    if (counters_->sent != sent0_) return kDeviceService;
    return kOther;
  }

  void close_at(std::uint64_t t) {
    if (open_) {
      const std::uint64_t gap = t - start_ns_;
      const Class c = classify();
      ++events[c];
      ns[c] += gap;
      if (gaps_ns.size() < kMaxGaps) {
        gaps_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(gap, 0xffffffffu)));
      }
    }
    saw_start_ = saw_retransmit_ = saw_received_ = saw_reply_ = false;
  }

  const net::NetworkCounters* counters_;
  bool open_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t sent0_ = 0;
  std::uint64_t delivered0_ = 0;
  bool saw_start_ = false;
  bool saw_retransmit_ = false;
  bool saw_received_ = false;
  bool saw_reply_ = false;
};

void install_probe(des::Scheduler& scheduler, EventClassifier& classifier) {
  scheduler.set_execution_probe(
      [&classifier](des::Time, std::uint64_t) { classifier.boundary(); });
}

/// The des.* event-class metrics of a traced span.
void put_event_classes(Result& result, const EventClassifier& cls,
                       double cycles) {
  const double events = static_cast<double>(cls.total_events());
  put(result, "des.events_per_cycle", per(events, cycles));
  std::vector<double> gaps(cls.gaps_ns.begin(), cls.gaps_ns.end());
  put(result, "des.ns_per_event_p50", percentile(gaps, 0.5));
  put(result, "des.ns_per_event_p99", percentile(gaps, 0.99));
  for (int c = 0; c < EventClassifier::kClassCount; ++c) {
    const std::string name = EventClassifier::kNames[c];
    put(result, "des.events." + name, static_cast<double>(cls.events[c]));
    put(result, "des.ns." + name,
        per(static_cast<double>(cls.ns[c]), static_cast<double>(cls.events[c])));
  }
}

// --- des_fleet -------------------------------------------------------------

constexpr std::size_t kFleetGroups = 60'000;
constexpr std::size_t kFleetCpsPerGroup = 4;
constexpr std::size_t kFleetEntities =
    kFleetGroups * (1 + kFleetCpsPerGroup);
constexpr std::size_t kCanaryEvery = 100;      // 1 % of CPs
constexpr std::size_t kFleetSilenced = 3'000;  // 5 % of devices
/// CPs start near the 4-CP steady-state delay (L_nom = 10 shared by 4 →
/// ~0.4 s) so a one-second warm-up reaches steady probing.
constexpr double kFleetInitialDelay = 0.4;
constexpr double kFleetDepartFrom = 0.2;
constexpr double kFleetDepartTo = 0.7;
constexpr double kFleetWarmup = 1.0;
constexpr double kFleetSlice = 0.1;
/// Reply latencies are recorded over a fixed simulated span, so the
/// sample set does not depend on how fast the host ran.
constexpr double kFleetReplySpan = 1.0;
/// Every departure is detected well before this virtual time (the
/// fastest of four CPs probes at least every ~0.4 s).
constexpr double kFleetMinHorizon = 2.0;
constexpr double kFleetTracedSpan = 0.5;
constexpr std::size_t kMinSlices = 5;

struct Fleet {
  explicit Fleet(std::uint64_t seed) : sim(seed) {}
  des::Simulation sim;
  std::unique_ptr<net::Network> network;
  core::EntityArena arena;  // outlives the wrappers below
  std::vector<std::unique_ptr<core::SappDevice>> devices;
  std::vector<std::unique_ptr<core::SappControlPoint>> cps;
  std::vector<std::pair<double, std::size_t>> departures;  // (t, device)
  std::vector<char> silenced;                              // per device
};

std::unique_ptr<Fleet> build_fleet(std::uint64_t seed,
                                   core::ProtocolObserver* canary,
                                   core::ProtocolObserver* everyone) {
  auto fleet = std::make_unique<Fleet>(seed);
  Fleet& f = *fleet;
  net::NetworkConfig ncfg;
  ncfg.buffer_capacity = std::max<std::size_t>(20'000, kFleetEntities);
  f.network = std::make_unique<net::Network>(
      f.sim.scheduler(), f.sim.rng(), ncfg, net::make_three_mode_delay(),
      net::make_no_loss());

  util::Rng rng = util::Rng(seed).fork("perfbench.des_fleet");
  core::SappCpConfig cp_config;
  cp_config.initial_delay = kFleetInitialDelay;
  const core::SappDeviceConfig device_config;
  f.devices.reserve(kFleetGroups);
  f.cps.reserve(kFleetGroups * kFleetCpsPerGroup);
  for (std::size_t g = 0; g < kFleetGroups; ++g) {
    f.devices.push_back(std::make_unique<core::SappDevice>(
        f.sim, *f.network, f.arena, device_config, everyone));
    const net::NodeId device = f.devices.back()->id();
    for (std::size_t c = 0; c < kFleetCpsPerGroup; ++c) {
      core::ProtocolObserver* observer =
          f.cps.size() % kCanaryEvery == 0 ? canary : everyone;
      f.cps.push_back(std::make_unique<core::SappControlPoint>(
          f.sim, *f.network, f.arena, device, cp_config, observer));
      f.cps.back()->start(rng.uniform(0.0, kFleetInitialDelay));
    }
  }

  // Seeded departure schedule: distinct devices go silent during warm-up.
  std::vector<std::size_t> order(kFleetGroups);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  f.silenced.assign(kFleetGroups, 0);
  for (std::size_t k = 0; k < kFleetSilenced; ++k) {
    const auto j = static_cast<std::size_t>(rng.uniform_u64(k, kFleetGroups - 1));
    std::swap(order[k], order[j]);
    const double t = rng.uniform(kFleetDepartFrom, kFleetDepartTo);
    core::SappDevice* device = f.devices[order[k]].get();
    f.sim.at(t, [device] { device->go_silent(); });
    f.departures.push_back({t, order[k]});
    f.silenced[order[k]] = 1;
  }
  return fleet;
}

struct FleetTally {
  std::uint64_t cycles = 0;
  std::uint64_t live_succeeded = 0;  ///< on never-silenced devices
  std::uint64_t live_failed = 0;
  std::uint64_t probes = 0;
  std::uint64_t absent_cps = 0;
};

FleetTally tally(const Fleet& f) {
  FleetTally t;
  for (std::size_t i = 0; i < f.cps.size(); ++i) {
    const core::ProbeCycle& cycle = f.cps[i]->cycle();
    t.cycles += cycle.cycles_succeeded() + cycle.cycles_failed();
    t.probes += cycle.probes_sent();
    if (!f.cps[i]->device_considered_present()) ++t.absent_cps;
    if (!f.silenced[i / kFleetCpsPerGroup]) {
      t.live_succeeded += cycle.cycles_succeeded();
      t.live_failed += cycle.cycles_failed();
    }
  }
  return t;
}

/// Device-level detection: the first of its CPs to declare absence.
std::vector<double> fleet_detections(const Fleet& f, Result& result) {
  std::vector<double> out;
  std::size_t missed = 0;
  for (const auto& [t, device] : f.departures) {
    double first = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < kFleetCpsPerGroup; ++c) {
      const double at = f.cps[device * kFleetCpsPerGroup + c]->absence_time();
      if (!std::isnan(at)) first = std::min(first, at);
    }
    if (std::isinf(first)) {
      ++missed;
    } else {
      out.push_back((first - t) * 1e3);
    }
  }
  if (missed > 0) {
    result.fail_check(std::to_string(missed) +
                      " silenced fleet devices were never declared absent");
  }
  return out;
}

void fleet_untraced(const RunOptions& options, Result& result) {
  std::vector<double> setup_s;
  CycleRecorder recorder;

  const std::uint64_t rss0 = current_rss_bytes();
  double t0 = now_s();
  auto fleet = build_fleet(options.seed, &recorder, nullptr);
  setup_s.push_back(now_s() - t0);
  const std::uint64_t rss1 = current_rss_bytes();

  Fleet& f = *fleet;
  f.sim.run_until(kFleetWarmup);
  recorder.recording = true;

  std::vector<double> rates, cpu_us;
  FleetTally prev = tally(f);
  const double start = now_s();
  std::uint64_t measured_cycles = 0;
  CpuRotation rotation;
  while (true) {
    rotation.advance();
    const double c0 = thread_cpu_s();
    const double w0 = now_s();
    f.sim.run_until(f.sim.now() + kFleetSlice);
    const double w1 = now_s();
    const double c1 = thread_cpu_s();
    const FleetTally cur = tally(f);
    const double cycles = static_cast<double>(cur.cycles - prev.cycles);
    measured_cycles += cur.cycles - prev.cycles;
    recorder.recording = f.sim.now() < kFleetWarmup + kFleetReplySpan - 1e-9;
    rates.push_back(per(cycles, w1 - w0));
    cpu_us.push_back(per((c1 - c0) * 1e6, cycles));
    prev = cur;
    if (now_s() - start >= options.seconds && f.sim.now() >= kFleetMinHorizon &&
        rates.size() >= kMinSlices) {
      break;
    }
  }

  put(result, "sim_cycles_per_s", sustained_rate(rates));
  put(result, "cpu_us_per_cycle", sustained_cost(cpu_us));
  put(result, "bytes_per_entity",
      static_cast<double>(rss1 - std::min(rss0, rss1)) /
          static_cast<double>(kFleetEntities));
  put_latencies(result, "reply", recorder.rtts_ms);
  put_latencies(result, "detect", fleet_detections(f, result));
  const FleetTally end = tally(f);
  // Four CPs share the device's L_nom and nothing is lost, so a cycle
  // that fails on a present device is a failed operation.
  result.attempted = end.live_succeeded + end.live_failed;
  result.failed = end.live_failed;
  put(result, "success_share",
      per(static_cast<double>(end.live_succeeded),
          static_cast<double>(result.attempted)));
  std::fprintf(stderr,
               "perfbench: des_fleet: %zu slices, %.3f virtual s, %llu "
               "measured cycles\n",
               rates.size(), f.sim.now(),
               static_cast<unsigned long long>(measured_cycles));
  fleet.reset();

  for (int i = 1; i < kSetupRepeats; ++i) {
    t0 = now_s();
    auto again = build_fleet(options.seed, nullptr, nullptr);
    setup_s.push_back(now_s() - t0);
  }
  put(result, "setup_s", median(setup_s));
}

/// Exact logical counts compared between the untraced and traced runs.
struct LogicalCounts {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t cycles = 0;
  std::uint64_t absences = 0;
  bool operator==(const LogicalCounts&) const = default;
};

void check_counts(Result& result, const char* what, const LogicalCounts& a,
                  const LogicalCounts& b) {
  if (a == b) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: untraced vs traced counts differ (events %llu/%llu, "
                "deliveries %llu/%llu, cycles %llu/%llu, absences %llu/%llu)",
                what, static_cast<unsigned long long>(a.events),
                static_cast<unsigned long long>(b.events),
                static_cast<unsigned long long>(a.deliveries),
                static_cast<unsigned long long>(b.deliveries),
                static_cast<unsigned long long>(a.cycles),
                static_cast<unsigned long long>(b.cycles),
                static_cast<unsigned long long>(a.absences),
                static_cast<unsigned long long>(b.absences));
  result.fail_check(buf);
}

struct FleetSpanRun {
  LogicalCounts counts;
  double wall_s = 0.0;   ///< wall time of the fixed traced span
  std::uint64_t cycles = 0;  ///< cycles completed inside it
};

/// One fleet over [0, warm-up + traced span]. With a classifier, every
/// entity reports to it and the execution probe is armed for the span.
FleetSpanRun fleet_fixed_span(std::uint64_t seed, EventClassifier* cls,
                              SpanLog* spans, Result* result) {
  CycleRecorder recorder;
  core::FanoutObserver canary;
  canary.add(&recorder);
  canary.add(cls);
  const double t0 = now_s();
  auto fleet = build_fleet(seed, &canary, cls);
  Fleet& f = *fleet;
  const double t1 = now_s();
  f.sim.run_until(kFleetWarmup);
  const double t2 = now_s();
  if (spans) {
    const auto setup = spans->add("des_fleet.setup", 0, t0, t1);
    spans->add("des_fleet.warmup", 0, t1, t2, setup);
  }

  EventClassifier* active = nullptr;
  if (cls) {
    // The classifier saw warm-up callbacks through the hooks; count the
    // traced span only.
    *cls = EventClassifier(&f.network->counters());
    install_probe(f.sim.scheduler(), *cls);
    active = cls;
  }
  recorder.recording = true;
  const FleetTally before = tally(f);
  const net::NetworkCounters net_before = f.network->counters();
  double wall = 0.0;
  std::vector<std::pair<double, double>> slices;
  while (f.sim.now() < kFleetWarmup + kFleetTracedSpan - 1e-9) {
    const double w0 = now_s();
    f.sim.run_until(f.sim.now() + kFleetSlice);
    if (active) active->close();
    const double w1 = now_s();
    wall += w1 - w0;
    slices.push_back({w0, w1});
  }
  if (spans) {
    const auto measure =
        spans->add("des_fleet.measure", 0, t2, slices.back().second);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      spans->add("des.run_until", i + 1, slices[i].first, slices[i].second,
                 measure);
    }
  }
  const FleetTally after = tally(f);

  FleetSpanRun run;
  run.wall_s = wall;
  run.cycles = after.cycles - before.cycles;
  run.counts = {f.sim.scheduler().executed_count(),
                f.network->counters().delivered, after.cycles,
                after.absent_cps};
  if (result) {
    const double cycles = static_cast<double>(run.cycles);
    Result& r = *result;
    if (cls) put_event_classes(r, *cls, cycles);
    const des::Scheduler& s = f.sim.scheduler();
    put(r, "des.queue_high_water", static_cast<double>(s.queue_high_water()));
    put(r, "des.pool_slots", static_cast<double>(s.pool_slots()));
    put(r, "des.coarse_resident", static_cast<double>(s.coarse_resident()));
    put(r, "des.overflow_resident", static_cast<double>(s.overflow_resident()));
    const net::NetworkCounters& nc = f.network->counters();
    put(r, "net.deliveries_per_cycle",
        per(static_cast<double>(nc.delivered - net_before.delivered), cycles));
    put(r, "net.mean_in_flight", f.network->mean_buffer_occupancy(f.sim.now()));
    put(r, "net.message_pool_slots",
        static_cast<double>(f.network->message_pool_slots()));
    put(r, "net.dropped_overflow", static_cast<double>(nc.dropped_overflow));
    put(r, "net.dropped_loss", static_cast<double>(nc.dropped_loss));
    put(r, "core.probes_per_cycle",
        per(static_cast<double>(after.probes - before.probes), cycles));
    put(r, "core.arena_device_slots", static_cast<double>(f.arena.device_slots()));
    put(r, "core.arena_cp_slots", static_cast<double>(f.arena.cp_slots()));
    put(r, "core.queue_pool_high_water",
        static_cast<double>(f.arena.queue_pool_high_water()));
    if (cls) {
      put(r, "observer.callbacks_per_cycle",
          per(static_cast<double>(cls->callbacks), cycles));
    }
    const FleetTally end = tally(f);
    r.failed = end.live_failed;
    put(r, "fail_share", per(static_cast<double>(end.live_failed),
                             static_cast<double>(end.live_succeeded +
                                                 end.live_failed)));
    put_latencies(r, "reply", recorder.rtts_ms);
    put_latencies(r, "detect", fleet_detections(f, r));
  }
  // Leave the probe unarmed before the classifier's fleet goes away.
  f.sim.scheduler().set_execution_probe({});
  return run;
}

void fleet_traced(const RunOptions& options, Result& result, SpanLog& spans) {
  const FleetSpanRun plain =
      fleet_fixed_span(options.seed, nullptr, nullptr, nullptr);
  EventClassifier cls(nullptr);
  const FleetSpanRun traced =
      fleet_fixed_span(options.seed, &cls, &spans, &result);
  check_counts(result, "des_fleet", plain.counts, traced.counts);
  const double plain_rate = per(static_cast<double>(plain.cycles), plain.wall_s);
  const double traced_rate =
      per(static_cast<double>(traced.cycles), traced.wall_s);
  put(result, "trace.overhead_pct", (per(plain_rate, traced_rate) - 1.0) * 100);
  result.attempted = traced.cycles;
  std::fprintf(stderr,
               "perfbench: des_fleet traced: %.0f cycles/s untraced, %.0f "
               "traced over %.1f virtual s\n",
               plain_rate, traced_rate, kFleetTracedSpan);
}

// --- des_paper -------------------------------------------------------------

constexpr double kSappHorizon = 300.0;
constexpr double kDcppHorizon = 200.0;
/// Churn stops kChurnQuiet seconds before the departure so every CP
/// watching at the departure is still watching at the horizon.
constexpr double kDcppDeparture = 188.0;
constexpr double kChurnQuiet = 8.0;
constexpr double kDcppLoss = 0.01;
constexpr std::size_t kDcppInitialCps = 20;
constexpr std::size_t kDcppMaxCps = 60;
constexpr double kChurnRate = 0.05;  // redraw #CPs every Exp(0.05) s
/// Every CP's reply latencies would be millions of samples a run.
constexpr std::uint64_t kPaperReplyEvery = 8;
/// Wall time spent on one CPU before moving to the next (CpuRotation).
constexpr double kRotatePeriod = 0.25;
/// Latencies come from the first replications only, so the sample set
/// depends on the seed and not on how many replications the host ran.
constexpr std::uint64_t kLatencyReplications = 1024;

/// One replication: the recorder outlives the experiment it observes.
struct Replication {
  bool dcpp = false;
  double horizon = 0.0;
  double departure = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  CycleRecorder recorder;
  std::unique_ptr<scenario::Experiment> exp;
};

std::unique_ptr<Replication> build_replication(std::uint64_t seed,
                                               std::uint64_t index,
                                               bool dcpp,
                                               core::ProtocolObserver* extra) {
  auto rep = std::make_unique<Replication>();
  rep->dcpp = dcpp;
  const std::uint64_t rep_seed =
      util::Rng(seed).fork("perfbench.des_paper").fork(index).next_u64();
  scenario::ExperimentConfig config;
  config.seed = rep_seed;
  if (!dcpp) {
    config.protocol = scenario::Protocol::kSapp;  // paper Fig 3
    config.initial_cps = 20;
    rep->horizon = kSappHorizon;
    rep->exp = std::make_unique<scenario::Experiment>(config);
  } else {
    config.protocol = scenario::Protocol::kDcpp;  // paper Fig 5
    config.initial_cps = kDcppInitialCps;
    config.dcpp_device.delta_min = 0.1;  // L_nom = 10
    config.dcpp_device.d_min = 0.5;      // f_max = 2
    config.join_jitter_max = 0.0;        // synchronous joins (worst case)
    config.loss_factory = [] { return net::make_bernoulli_loss(kDcppLoss); };
    rep->horizon = kDcppHorizon;
    rep->departure = kDcppDeparture;
    rep->exp = std::make_unique<scenario::Experiment>(config);

    util::Rng churn_rng = util::Rng(rep_seed).fork("perfbench.churn");
    std::vector<scenario::ScriptedChurn::Step> steps;
    std::size_t active = kDcppInitialCps;
    double t = 0.0;
    while (true) {
      t += -std::log(churn_rng.next_double_open0()) / kChurnRate;
      if (t > kDcppDeparture - kChurnQuiet) break;
      const auto target =
          static_cast<std::size_t>(churn_rng.uniform_u64(1, kDcppMaxCps));
      if (target > active) rep->joins += target - active;
      if (target < active) rep->leaves += active - target;
      active = target;
      steps.push_back({t, target});
    }
    rep->exp->install_churn(
        std::make_unique<scenario::ScriptedChurn>(std::move(steps)));
    rep->exp->schedule_device_departure(kDcppDeparture);
  }
  rep->exp->add_observer(rep->recorder);
  if (extra) rep->exp->add_observer(*extra);
  rep->recorder.recording = true;
  rep->recorder.keep_every = kPaperReplyEvery;
  rep->recorder.count_until = rep->departure;
  return rep;
}

struct ReplicationOutcome {
  LogicalCounts counts;
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  std::uint64_t cycles = 0;
  /// Absences declared while the device was present. Both scenarios
  /// admit them — SAPP with 20 CPs overloads the device (the paper's
  /// point) and DCPP runs under loss — so they lower success_share but
  /// do not fail the replication.
  std::uint64_t false_absences = 0;
  std::uint64_t violations = 0;
  bool checks_passed = true;
};

/// Runs a built replication to its horizon and checks its outcome.
ReplicationOutcome run_replication(Replication& rep, Result& result,
                                   std::vector<double>& rtts_ms,
                                   std::vector<double>& detect_ms) {
  scenario::Experiment& exp = *rep.exp;
  ReplicationOutcome out;
  const double c0 = thread_cpu_s();
  const double w0 = now_s();
  exp.run_until(rep.horizon);
  exp.finish();
  out.run_wall_s = now_s() - w0;
  out.run_cpu_s = thread_cpu_s() - c0;

  const CycleRecorder& rec = rep.recorder;
  for (const auto& [cp, t] : rec.absences) {
    if (rep.dcpp && t >= rep.departure) {
      detect_ms.push_back((t - rep.departure) * 1e3);
    } else {
      ++out.false_absences;
    }
  }
  out.cycles = rec.successes + rec.absences.size();
  rtts_ms.insert(rtts_ms.end(), rec.rtts_ms.begin(), rec.rtts_ms.end());
  out.violations = exp.auditor() ? exp.auditor()->total_violations() : 0;
  out.counts = {exp.sim().scheduler().executed_count(),
                exp.network().counters().delivered, out.cycles,
                rec.absences.size()};

  const bool correct_before = result.correct;
  result.correct = true;
  if (out.violations > 0) {
    result.fail_check("invariant auditor: " + exp.auditor()->summary());
  }
  if (rep.dcpp) {
    for (net::NodeId id : exp.active_cp_ids()) {
      const core::ControlPointBase* cp = exp.cp(id);
      if (cp && cp->device_considered_present()) {
        result.fail_check("DCPP CP " + std::to_string(id) +
                          " never declared the departed device absent");
        break;
      }
    }
    // DCPP keeps the device load at L_nom: granted slots are >= delta_min
    // apart, so up to the departure the device receives at most
    // L_nom * t + 1 granted probes, plus the ungranted ones — each CP's
    // first probe and every retransmission.
    const double l_nom = exp.config().dcpp_device.l_nom();
    const double bound = l_nom * rep.departure + 1.0 +
                         static_cast<double>(kDcppInitialCps + rep.joins +
                                             rec.retransmits_before);
    if (static_cast<double>(rec.received_before) > bound) {
      result.fail_check("DCPP device received " +
                        std::to_string(rec.received_before) +
                        " probes, above the L_nom bound " +
                        std::to_string(bound));
    }
  }
  out.checks_passed = result.correct;
  result.correct = correct_before && result.correct;
  return out;
}

struct PairStats {
  std::vector<double> setup_s, rates, cpu_us;
  std::uint64_t cycles = 0, replications = 0, failed = 0, false_absences = 0;
};

/// RSS growth per entity across building kFootprintPairs replication
/// pairs side by side, first thing in the process: one experiment alone
/// is a few dozen pages, too few to read apart from allocator noise.
double paper_bytes_per_entity(std::uint64_t seed) {
  constexpr std::uint64_t kFootprintPairs = 8;
  const std::uint64_t rss0 = current_rss_bytes();
  std::vector<std::unique_ptr<Replication>> reps;
  double entities = 0.0;
  for (std::uint64_t i = 0; i < 2 * kFootprintPairs; ++i) {
    reps.push_back(build_replication(seed, i, i % 2 == 1, nullptr));
    entities += 1.0 + static_cast<double>(reps.back()->exp->active_cp_count());
  }
  const std::uint64_t rss1 = current_rss_bytes();
  return static_cast<double>(rss1 - std::min(rss0, rss1)) / entities;
}

void paper_untraced(const RunOptions& options, Result& result) {
  put(result, "bytes_per_entity", paper_bytes_per_entity(options.seed));
  PairStats stats;
  std::vector<double> rtts_ms, detect_ms, unused_rtts, unused_detect;
  const double start = now_s();
  CpuRotation rotation;
  double rotated_at = -1.0;
  for (std::uint64_t pair = 0;; ++pair) {
    if (now_s() - rotated_at >= kRotatePeriod) {
      rotation.advance();
      rotated_at = now_s();
    }
    double setup = 0.0, wall = 0.0, cpu = 0.0;
    std::uint64_t cycles = 0;
    for (int k = 0; k < 2; ++k) {
      const std::uint64_t index = 2 * pair + k;
      const bool sampled = index < kLatencyReplications;
      const double t0 = now_s();
      auto rep = build_replication(options.seed, index, k == 1, nullptr);
      setup += now_s() - t0;
      const ReplicationOutcome out =
          run_replication(*rep, result, sampled ? rtts_ms : unused_rtts,
                          sampled ? detect_ms : unused_detect);
      unused_rtts.clear();
      unused_detect.clear();
      wall += out.run_wall_s;
      cpu += out.run_cpu_s;
      cycles += out.cycles;
      ++stats.replications;
      stats.failed += out.checks_passed ? 0 : 1;
      stats.false_absences += out.false_absences;
    }
    stats.cycles += cycles;
    stats.setup_s.push_back(setup);
    stats.rates.push_back(per(static_cast<double>(cycles), wall));
    stats.cpu_us.push_back(per(cpu * 1e6, static_cast<double>(cycles)));
    if (now_s() - start >= options.seconds && stats.rates.size() >= kMinSlices &&
        stats.replications >= kLatencyReplications) {
      break;
    }
  }
  put(result, "setup_s", median(stats.setup_s));
  put(result, "sim_cycles_per_s", sustained_rate(stats.rates));
  put(result, "cpu_us_per_cycle", sustained_cost(stats.cpu_us));
  put_latencies(result, "reply", rtts_ms);
  put_latencies(result, "detect", detect_ms);
  result.attempted = stats.replications;
  result.failed = stats.failed;
  put(result, "success_share",
      per(static_cast<double>(stats.cycles - stats.false_absences),
          static_cast<double>(stats.cycles)));
  std::fprintf(stderr, "perfbench: des_paper: %zu replication pairs\n",
               stats.rates.size());
}

void paper_traced(const RunOptions& options, Result& result, SpanLog& spans) {
  // Reference pass without tracing for half the budget, then the same
  // replications again with the classifier and execution probe.
  std::vector<LogicalCounts> plain_counts;
  std::vector<double> scratch_rtt, scratch_detect;
  double plain_wall = 0.0;
  std::uint64_t plain_cycles = 0;
  const double start = now_s();
  std::uint64_t reps = 0;
  while (reps < 2 * kMinSlices || now_s() - start < options.seconds / 2) {
    auto rep = build_replication(options.seed, reps, reps % 2 == 1, nullptr);
    const ReplicationOutcome out =
        run_replication(*rep, result, scratch_rtt, scratch_detect);
    plain_counts.push_back(out.counts);
    plain_wall += out.run_wall_s;
    plain_cycles += out.cycles;
    ++reps;
  }

  double traced_wall = 0.0;
  std::uint64_t traced_cycles = 0, failed = 0, false_absences = 0;
  std::uint64_t violations = 0;
  std::uint64_t joins = 0, leaves = 0, probes_sent = 0, delivered = 0;
  std::uint64_t callbacks = 0, high_water = 0, pool_slots = 0;
  std::uint64_t coarse = 0, overflow = 0, msg_slots = 0, dropped_overflow = 0;
  std::uint64_t dropped_loss = 0, dev_slots = 0, cp_slots = 0, queue_hw = 0;
  double in_flight_sum = 0.0;
  std::array<std::uint64_t, EventClassifier::kClassCount> events{}, ns{};
  std::vector<std::uint32_t> gaps;
  std::vector<double> rtts_ms, detect_ms;
  for (std::uint64_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    EventClassifier rep_cls(nullptr);
    auto rep = build_replication(options.seed, i, i % 2 == 1, &rep_cls);
    scenario::Experiment& exp = *rep->exp;
    rep_cls = EventClassifier(&exp.network().counters());
    install_probe(exp.sim().scheduler(), rep_cls);
    const double t1 = now_s();
    const ReplicationOutcome out = run_replication(*rep, result, rtts_ms, detect_ms);
    rep_cls.close();
    exp.sim().scheduler().set_execution_probe({});
    const double t2 = now_s();
    const auto setup_span =
        spans.add(rep->dcpp ? "des_paper.setup_dcpp" : "des_paper.setup_sapp",
                  i, t0, t1);
    spans.add("des.run_until", i, t1, t2, setup_span);

    check_counts(result, "des_paper", plain_counts[i], out.counts);
    traced_wall += out.run_wall_s;
    traced_cycles += out.cycles;
    failed += out.checks_passed ? 0 : 1;
    false_absences += out.false_absences;
    violations += out.violations;
    joins += rep->joins;
    leaves += rep->leaves;
    probes_sent += exp.metrics().total_probes_sent();
    delivered += exp.network().counters().delivered;
    callbacks += rep_cls.callbacks;
    for (int c = 0; c < EventClassifier::kClassCount; ++c) {
      events[c] += rep_cls.events[c];
      ns[c] += rep_cls.ns[c];
    }
    gaps.insert(gaps.end(), rep_cls.gaps_ns.begin(), rep_cls.gaps_ns.end());
    const des::Scheduler& s = exp.sim().scheduler();
    high_water = std::max<std::uint64_t>(high_water, s.queue_high_water());
    pool_slots = std::max<std::uint64_t>(pool_slots, s.pool_slots());
    coarse = std::max<std::uint64_t>(coarse, s.coarse_resident());
    overflow = std::max<std::uint64_t>(overflow, s.overflow_resident());
    const net::NetworkCounters& nc = exp.network().counters();
    msg_slots = std::max<std::uint64_t>(msg_slots,
                                        exp.network().message_pool_slots());
    dropped_overflow += nc.dropped_overflow;
    dropped_loss += nc.dropped_loss;
    in_flight_sum += exp.network().mean_buffer_occupancy(rep->horizon);
    dev_slots = std::max<std::uint64_t>(dev_slots, exp.entities().device_slots());
    cp_slots = std::max<std::uint64_t>(cp_slots, exp.entities().cp_slots());
    queue_hw = std::max<std::uint64_t>(queue_hw,
                                       exp.entities().queue_pool_high_water());
  }

  EventClassifier total(nullptr);
  total.events = events;
  total.ns = ns;
  total.gaps_ns = std::move(gaps);
  const double cycles = static_cast<double>(traced_cycles);
  put_event_classes(result, total, cycles);
  put(result, "des.queue_high_water", static_cast<double>(high_water));
  put(result, "des.pool_slots", static_cast<double>(pool_slots));
  put(result, "des.coarse_resident", static_cast<double>(coarse));
  put(result, "des.overflow_resident", static_cast<double>(overflow));
  put(result, "net.deliveries_per_cycle", per(static_cast<double>(delivered), cycles));
  put(result, "net.mean_in_flight", in_flight_sum / static_cast<double>(reps));
  put(result, "net.message_pool_slots", static_cast<double>(msg_slots));
  put(result, "net.dropped_overflow", static_cast<double>(dropped_overflow));
  put(result, "net.dropped_loss", static_cast<double>(dropped_loss));
  put(result, "core.probes_per_cycle", per(static_cast<double>(probes_sent), cycles));
  put(result, "core.arena_device_slots", static_cast<double>(dev_slots));
  put(result, "core.arena_cp_slots", static_cast<double>(cp_slots));
  put(result, "core.queue_pool_high_water", static_cast<double>(queue_hw));
  put(result, "core.cp_joins", static_cast<double>(joins));
  put(result, "core.cp_leaves", static_cast<double>(leaves));
  put(result, "observer.callbacks_per_cycle", per(static_cast<double>(callbacks), cycles));
  put(result, "check.violations", static_cast<double>(violations));
  put(result, "fail_share", per(static_cast<double>(false_absences), cycles));
  put_latencies(result, "reply", rtts_ms);
  put_latencies(result, "detect", detect_ms);
  const double plain_rate = per(static_cast<double>(plain_cycles), plain_wall);
  const double traced_rate = per(cycles, traced_wall);
  put(result, "trace.overhead_pct", (per(plain_rate, traced_rate) - 1.0) * 100);
  result.attempted = reps;
  result.failed = failed;
  std::fprintf(stderr,
               "perfbench: des_paper traced: %llu replications, %.0f cycles/s "
               "untraced, %.0f traced\n",
               static_cast<unsigned long long>(reps), plain_rate, traced_rate);
}

}  // namespace

void run_des_fleet(const RunOptions& options, Result& result, SpanLog& spans) {
  if (options.trace) {
    fleet_traced(options, result, spans);
  } else {
    fleet_untraced(options, result);
  }
}

void run_des_paper(const RunOptions& options, Result& result, SpanLog& spans) {
  if (options.trace) {
    paper_traced(options, result, spans);
  } else {
    paper_untraced(options, result);
  }
}

}  // namespace perfbench
