// perfbench — one benchmark for both engines of probemon.
//
//   perfbench --workload <des_fleet|des_paper|rt_monitor> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics, writes its spans to
// <out-dir>/trace-<workload>-<seed>.json and reports its own overhead.
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the line before it is the host fingerprint. The
// exit code is 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage and 3 when the run itself broke. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "support.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<des_fleet|des_paper|rt_monitor> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.contains(required)) {
      return usage((std::string("missing --") + required).c_str());
    }
  }

  RunOptions options;
  const std::string workload = args["workload"];
  try {
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") {
    return usage("--trace takes 0 or 1");
  }
  options.trace = args["trace"] == "1";
  options.out_dir = args.contains("out-dir") ? args["out-dir"] : "perfbench_out";

  void (*run)(const RunOptions&, Result&, SpanLog&) = nullptr;
  if (workload == "des_fleet") run = run_des_fleet;
  if (workload == "des_paper") run = run_des_paper;
  if (workload == "rt_monitor") run = run_rt_monitor;
  if (!run) return usage(("unknown workload " + workload).c_str());

  const HostFingerprint host = host_fingerprint();
  Result result;
  SpanLog spans;
  try {
    run(options, result, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 3;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + workload + "-" +
                             std::to_string(options.seed) + ".json";
    if (!spans.write_chrome_trace(path, "perfbench " + workload)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 3;
    }
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", spans.size(),
                 path.c_str());
    put(result, "trace.spans", static_cast<double>(spans.size()));
    put(result, "host.nproc", host.nproc);
    put(result, "host.calibration_mops", host.calibration_mops);
  }
  // Report exactly the catalogue of this kind of run.
  Result report;
  report.correct = result.correct;
  report.attempted = result.attempted;
  report.failed = result.failed;
  for (const MetricSpec& spec :
       options.trace ? per_layer_metrics() : end_to_end_metrics()) {
    if (result.has(spec.name)) {
      report.set(spec.name, result.get(spec.name), spec.unit);
    } else if (options.trace) {
      report.set(spec.name, 0.0, spec.unit);
    } else {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   workload.c_str(), spec.name);
      return 3;
    }
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s completed no cycles\n", workload.c_str());
    return 3;
  }

  const std::string host_json =
      "{\"nproc\": " + std::to_string(host.nproc) + ", \"cpu_model\": \"" +
      json_escape(host.cpu_model) + "\", \"calibration_mops\": " +
      format_number(host.calibration_mops) + "}";
  const std::string result_json = report.to_json();
  const std::string record_path = options.out_dir + "/result-" + workload +
                                  "-" + std::to_string(options.seed) +
                                  "-trace" + args["trace"] + ".json";
  std::ofstream(record_path) << "{\"workload\": \"" << workload
                             << "\", \"seed\": " << options.seed
                             << ", \"host\": " << host_json
                             << ", \"result\": " << result_json << "}\n";

  std::printf("host %s\n%s\n", host_json.c_str(), result_json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
