// perfbench support: measurement helpers shared by the workloads.
//
// Everything here measures the program from outside — clocks, thread
// rusage, RSS, /proc/net/udp — or formats what was measured. The
// workloads (des_workloads.cpp, rt_monitor.cpp) call into the library
// only through its public API.
#pragma once

#include <sys/time.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- percentiles -----------------------------------------------------------

/// Nearest-rank percentile of `values` (q in (0, 1]); sorts in place.
/// Returns NaN for an empty input.
double percentile(std::vector<double>& values, double q);

/// Samples that lie beyond the nearest-rank q-th percentile of n
/// samples: n - ceil(q * n).
std::uint64_t samples_beyond(std::uint64_t n, double q);

/// The reporting rule for a timing: its median, plus the highest
/// percentile from the ladder {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}, at
/// most `max_q`, that has at least `min_beyond` samples beyond it.
struct TailSummary {
  std::uint64_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< the percentile reported as the tail (0 if n == 0)
  double tail = 0.0;
};
TailSummary summarize_tail(std::vector<double> values, double max_q = 0.99,
                           std::uint64_t min_beyond = 10);

/// Median; NaN for an empty input.
double median(std::vector<double> values);

// --- /proc/net/udp ---------------------------------------------------------

/// Kernel receive-queue drops of the UDP socket bound to local `port`,
/// parsed from the text of /proc/net/udp (the last column of its row).
/// nullopt when no row matches.
std::optional<std::uint64_t> udp_drops_for_port(std::string_view proc_text,
                                                std::uint16_t port);

/// Reads /proc/net/udp and applies udp_drops_for_port.
std::optional<std::uint64_t> read_udp_drops(std::uint16_t port);

// --- thread CPU time -------------------------------------------------------

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};

/// Seconds between two timevals (b - a), borrowing across the usec field.
double timeval_delta_s(const timeval& a, const timeval& b);

/// CPU time of the calling thread split into user and system time
/// (getrusage(RUSAGE_THREAD)). The split is sampled at scheduler ticks,
/// so use it over intervals of many ticks.
CpuTimes thread_cpu();

/// CPU time of the calling thread in seconds, exact to the nanosecond
/// (CLOCK_THREAD_CPUTIME_ID) — for short intervals.
double thread_cpu_s();

/// b - a, field by field.
CpuTimes cpu_delta(const CpuTimes& a, const CpuTimes& b);

// --- memory, clocks, host --------------------------------------------------

/// Resident set size of this process now (from /proc/self/statm).
std::uint64_t current_rss_bytes();

/// Monotonic seconds since an arbitrary epoch.
double now_s();

struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  /// Fixed integer calibration loop, million dependent steps per second
  /// (median of five timings). Lets results from different hosts be
  /// told apart and scaled.
  double calibration_mops = 0.0;
};
HostFingerprint host_fingerprint();

/// Moves the calling thread round-robin over the CPUs the process may
/// use. On a shared host a neighbour can keep one core's caches busy for
/// minutes, and a thread the scheduler leaves on that core runs a whole
/// run slowly; rotating every slice lets each run sample every core.
/// The destructor restores the thread's original affinity. A no-op when
/// affinity cannot be read or set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the next CPU.
  void advance();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- results ---------------------------------------------------------------

/// Metric name -> (value, unit), printed as the benchmark's result line.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.contains(name); }
  double get(const std::string& name) const;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record a failed correctness check (printed on stderr).
  void fail_check(const std::string& what);

  /// The one-line JSON object {"correct","attempted","failed","metrics"}.
  std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Shortest round-trip decimal text of a double ("null" for non-finite).
std::string format_number(double v);

// --- spans -----------------------------------------------------------------

/// Spans kept in memory during a traced run and written when it ends.
/// Times are seconds on the workload's own clock; `id` groups the spans
/// of one entity (device, watch, slice), `parent` names the span that
/// caused this one (0 = none).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  /// Returns the span's index + 1, usable as a `parent` reference.
  std::uint64_t add(std::string name, std::uint64_t id, double start_s,
                    double end_s, std::uint64_t parent = 0);
  std::size_t size() const { return spans_.size(); }

  /// Write Chrome trace-event JSON (chrome://tracing, Perfetto): one
  /// complete ("X") event per span, tid = span id, args {id, parent}.
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
