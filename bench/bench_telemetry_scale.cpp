// bench_telemetry_scale — fleet-scale telemetry registry costs.
//
// Not a paper artifact: this gates the observability subsystem itself.
// Three questions, each at a sweep of series cardinalities:
//
//   1. Registration throughput: how fast can a Registry find-or-create
//      series through the interned-id API?
//   2. Scrape cost: full Prometheus exposition vs a delta scrape with
//      only `--dirty` series changed — the O(total) vs O(changed)
//      claim, reported as bytes and microseconds plus the ratios
//      (speedup_time / speedup_bytes, gated one-sided in CI).
//   3. Equivalence: a registry populated through the interned-id API
//      must expose byte-identical text to one populated through the
//      string API (the snapshot_identical boolean — an exact CI
//      tripwire, not a threshold).
//
//   ./bench_telemetry_scale --series=1000,100000,1000000 --dirty=1000
//
// Writes bench_out/bench_telemetry_scale.json (keys s<N>.*).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "telemetry/export.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/registry.hpp"
#include "util/cli.hpp"

using namespace probemon;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::uint64_t> parse_series_list(const std::string& spec) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(std::stoull(spec.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

/// Populate `n` counter series (device=0..n-1) through the id API and
/// return the counters for later dirtying.
std::vector<telemetry::Counter*> populate(telemetry::Registry& reg,
                                          std::uint64_t n) {
  std::vector<telemetry::Counter*> counters;
  counters.reserve(n);
  const auto name = reg.intern_name("probemon_scale_series_total");
  const auto device = reg.intern_label_name("device");
  const auto help = reg.intern("Synthetic per-device series");
  for (std::uint64_t i = 0; i < n; ++i) {
    const telemetry::LabelIds labels{
        {device, reg.intern(std::to_string(i))}};
    auto& c = reg.counter_ids(name, labels, help);
    c.inc(i % 7);
    counters.push_back(&c);
  }
  return counters;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto series_spec =
      cli.get<std::string>("series", "1000,100000,1000000");
  const auto dirty = cli.get<std::uint64_t>("dirty", 1000);
  cli.finish("bench_telemetry_scale: registry scale + delta-scrape costs");

  benchutil::print_header(
      "bench_telemetry_scale", "observability scale gate",
      "delta scrape is O(changed): >=10x cheaper than full at high "
      "cardinality");
  benchutil::JsonSummary summary("bench_telemetry_scale");
  summary.set("dirty", dirty);

  for (const std::uint64_t n : parse_series_list(series_spec)) {
    telemetry::LabelInterner interner;
    telemetry::Registry reg(&interner);

    auto start = std::chrono::steady_clock::now();
    auto counters = populate(reg, n);
    const double register_s = seconds_since(start);
    const double register_per_s = static_cast<double>(n) / register_s;

    telemetry::DeltaExporter exporter(reg);

    // Full scrape (first scrape of a fresh cursor is always full).
    start = std::chrono::steady_clock::now();
    const std::string full = exporter.prometheus();
    const double full_s = seconds_since(start);

    // Dirty a spread subset, then delta-scrape.
    const std::uint64_t step = dirty == 0 ? n : std::max<std::uint64_t>(
                                                    1, n / std::max<
                                                           std::uint64_t>(
                                                           1, dirty));
    std::uint64_t dirtied = 0;
    for (std::uint64_t i = 0; i < n && dirtied < dirty; i += step) {
      counters[i]->inc();
      ++dirtied;
    }
    start = std::chrono::steady_clock::now();
    const std::string delta = exporter.prometheus();
    const double delta_s = seconds_since(start);

    const double speedup_time = delta_s > 0 ? full_s / delta_s : 0.0;
    const double speedup_bytes =
        delta.empty() ? 0.0
                      : static_cast<double>(full.size()) /
                            static_cast<double>(delta.size());

    std::printf(
        "series=%-9llu register %8.3g/s | full %9zu B %9.1f us | "
        "delta(%llu dirty) %7zu B %8.1f us | speedup %.1fx time %.1fx "
        "bytes\n",
        static_cast<unsigned long long>(n), register_per_s, full.size(),
        full_s * 1e6, static_cast<unsigned long long>(dirtied),
        delta.size(), delta_s * 1e6, speedup_time, speedup_bytes);

    const std::string prefix = "s" + std::to_string(n) + ".";
    summary.set(prefix + "register_per_s", register_per_s);
    summary.set(prefix + "full_bytes", std::uint64_t(full.size()));
    summary.set(prefix + "full_us", full_s * 1e6);
    summary.set(prefix + "delta_bytes", std::uint64_t(delta.size()));
    summary.set(prefix + "delta_us", delta_s * 1e6);
    summary.set(prefix + "speedup_time", speedup_time);
    summary.set(prefix + "speedup_bytes", speedup_bytes);
  }

  // Equivalence tripwire at a small cardinality: the id API must expose
  // the same bytes as the string API for the same contents.
  {
    const std::uint64_t n = 1000;
    telemetry::LabelInterner string_interner;
    telemetry::Registry by_string(&string_interner);
    for (std::uint64_t i = 0; i < n; ++i) {
      by_string
          .counter("probemon_scale_series_total",
                   "Synthetic per-device series",
                   {{"device", std::to_string(i)}})
          .inc(i % 7);
    }
    telemetry::LabelInterner id_interner;
    telemetry::Registry by_id(&id_interner);
    populate(by_id, n);
    const bool identical =
        telemetry::to_prometheus(by_id) == telemetry::to_prometheus(by_string);
    std::printf("id API == string API exposition: %s\n",
                identical ? "identical" : "MISMATCH");
    summary.set("snapshot_identical", identical);
  }

  summary.write();
  std::printf("wrote %s\n", summary.path().c_str());
  benchutil::print_footer();
  return 0;
}
