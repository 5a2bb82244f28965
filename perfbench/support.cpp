#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

// --- percentiles -----------------------------------------------------------

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::uint64_t samples_beyond(std::uint64_t n, double q) {
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

TailSummary summarize_tail(std::vector<double> values, double max_q,
                           std::uint64_t min_beyond) {
  TailSummary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = percentile(values, 0.5);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (q > max_q) continue;
    if (samples_beyond(s.n, q) >= min_beyond || q == 0.5) {
      s.tail_q = q;
      s.tail = percentile(values, q);
      break;
    }
  }
  return s;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

// --- /proc/net/udp ---------------------------------------------------------

std::optional<std::uint64_t> udp_drops_for_port(std::string_view proc_text,
                                                std::uint16_t port) {
  std::optional<std::uint64_t> total;
  std::istringstream lines{std::string(proc_text)};
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string slot, local, last, tok;
    if (!(fields >> slot >> local)) continue;
    while (fields >> tok) last = tok;
    const auto colon = local.rfind(':');
    if (colon == std::string::npos || last.empty()) continue;
    unsigned long local_port = 0;
    const std::string port_hex = local.substr(colon + 1);
    const auto [pend, perr] = std::from_chars(
        port_hex.data(), port_hex.data() + port_hex.size(), local_port, 16);
    if (perr != std::errc() || local_port != port) continue;
    std::uint64_t drops = 0;
    const auto [dend, derr] =
        std::from_chars(last.data(), last.data() + last.size(), drops);
    if (derr != std::errc()) continue;
    total = total.value_or(0) + drops;
  }
  return total;
}

std::optional<std::uint64_t> read_udp_drops(std::uint16_t port) {
  std::ifstream in("/proc/net/udp");
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return udp_drops_for_port(text.str(), port);
}

// --- thread CPU time -------------------------------------------------------

double timeval_delta_s(const timeval& a, const timeval& b) {
  std::int64_t sec = static_cast<std::int64_t>(b.tv_sec) - a.tv_sec;
  std::int64_t usec = static_cast<std::int64_t>(b.tv_usec) - a.tv_usec;
  if (usec < 0) {
    usec += 1'000'000;
    sec -= 1;
  }
  return static_cast<double>(sec) + static_cast<double>(usec) * 1e-6;
}

CpuTimes thread_cpu() {
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) {
    throw std::runtime_error("getrusage(RUSAGE_THREAD) failed");
  }
  const timeval zero{};
  return {timeval_delta_s(zero, ru.ru_utime),
          timeval_delta_s(zero, ru.ru_stime)};
}

double thread_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTimes cpu_delta(const CpuTimes& a, const CpuTimes& b) {
  return {b.user_s - a.user_s, b.sys_s - a.sys_s};
}

// --- memory, clocks, host --------------------------------------------------

std::uint64_t current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  if (!(in >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    auto first = line.find_first_not_of(' ', colon + 1);
    return first == std::string::npos ? "" : line.substr(first);
  }
  return "unknown";
}

/// A serial multiply/xor-shift chain the compiler cannot vectorize or
/// shorten: its rate tracks single-core integer speed.
double calibration_once() {
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 24;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const double dt = now_s() - t0;
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(kSteps) / 1e6 / dt;
}

}  // namespace

HostFingerprint host_fingerprint() {
  HostFingerprint h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = read_cpu_model();
  std::vector<double> scores;
  for (int i = 0; i < 5; ++i) scores.push_back(calibration_once());
  h.calibration_mops = median(scores);
  return h;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int c : cpus_) CPU_SET(c, &allowed);
  sched_setaffinity(0, sizeof allowed, &allowed);
}

void CpuRotation::advance() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  sched_setaffinity(0, sizeof one, &one);
  next_ = (next_ + 1) % cpus_.size();
}

// --- results ---------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

double Result::get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? std::numeric_limits<double>::quiet_NaN()
                              : it->second.first;
}

void Result::fail_check(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << '\n';
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(entry.first) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  out += "}}";
  return out;
}

// --- spans -----------------------------------------------------------------

std::uint64_t SpanLog::add(std::string name, std::uint64_t id, double start_s,
                           double end_s, std::uint64_t parent) {
  spans_.push_back({std::move(name), id, parent, start_s, end_s});
  return spans_.size();
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"traceEvents\": [\n{\"ph\": \"M\", \"name\": "
               "\"process_name\", \"pid\": 1, \"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": "
                 "%zu, \"id\": %llu, \"parent\": %llu}}",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i + 1,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
