#include "telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace probemon::telemetry {

namespace {

/// Prometheus sample-value formatting: integral values without decimals,
/// non-finite values as the spec's literals.
std::string fmt_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_number(v);
}

/// Prometheus label-value escaping: \, ", and newline.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Labels + one extra pair appended (histogram `le`).
std::string label_block_with(const Labels& labels, const std::string& key,
                             const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return label_block(extended);
}

void emit_family_header(std::string& out, const Sample& s,
                        std::string& last_name) {
  if (s.name == last_name) return;
  last_name = s.name;
  if (!s.help.empty()) {
    out += "# HELP " + s.name + ' ' + s.help + '\n';
  }
  out += "# TYPE " + s.name + ' ';
  out += to_string(s.type);
  out += '\n';
}

}  // namespace

std::string samples_to_prometheus(const std::vector<Sample>& samples) {
  std::string out;
  std::string last_name;
  for (const Sample& s : samples) {
    emit_family_header(out, s, last_name);
    if (s.type != MetricType::kHistogram) {
      out += s.name + label_block(s.labels) + ' ' + fmt_value(s.value) + '\n';
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      cumulative += s.buckets[i];
      const std::string le =
          i < s.bounds.size() ? fmt_value(s.bounds[i]) : "+Inf";
      out += s.name + "_bucket" + label_block_with(s.labels, "le", le) + ' ' +
             std::to_string(cumulative) + '\n';
    }
    out += s.name + "_sum" + label_block(s.labels) + ' ' + fmt_value(s.sum) +
           '\n';
    out += s.name + "_count" + label_block(s.labels) + ' ' +
           std::to_string(s.count) + '\n';
  }
  return out;
}

void write_samples_json(JsonWriter& w, const std::vector<Sample>& samples) {
  w.key("metrics");
  w.begin_array();
  for (const Sample& s : samples) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("type");
    w.value(to_string(s.type));
    if (!s.help.empty()) {
      w.key("help");
      w.value(s.help);
    }
    if (!s.labels.empty()) {
      w.key("labels");
      w.begin_object();
      for (const auto& [k, v] : s.labels) {
        w.key(k);
        w.value(v);
      }
      w.end_object();
    }
    if (s.type != MetricType::kHistogram) {
      w.key("value");
      w.value(s.value);
    } else {
      w.key("count");
      w.value(s.count);
      w.key("sum");
      w.value(s.sum);
      w.key("bounds");
      w.begin_array();
      for (double b : s.bounds) w.value(b);
      w.end_array();
      w.key("buckets");
      w.begin_array();
      for (std::uint64_t c : s.buckets) w.value(c);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
}

std::string samples_to_json(const std::vector<Sample>& samples) {
  JsonWriter w;
  w.begin_object();
  write_samples_json(w, samples);
  w.end_object();
  return w.str();
}

std::string to_prometheus(const Registry& store) {
  return samples_to_prometheus(store.snapshot());
}

std::string to_json(const Registry& store) {
  return samples_to_json(store.snapshot());
}

std::string render_human(const Registry& store) {
  const auto samples = store.snapshot();
  // Align the value column on the longest name+labels.
  std::size_t width = 0;
  std::vector<std::string> keys;
  keys.reserve(samples.size());
  for (const Sample& s : samples) {
    keys.push_back(s.name + label_block(s.labels));
    width = std::max(width, keys.back().size());
  }
  std::string out;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out += keys[i];
    out.append(width - keys[i].size() + 2, ' ');
    if (s.type != MetricType::kHistogram) {
      out += fmt_value(s.value);
    } else {
      const double mean =
          s.count ? s.sum / static_cast<double>(s.count) : 0.0;
      char buf[96];
      std::snprintf(buf, sizeof buf, "count=%llu mean=%.6g sum=%.6g",
                    static_cast<unsigned long long>(s.count), mean, s.sum);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

std::string DeltaExporter::prometheus(bool full) {
  util::MutexLock lock(mutex_);
  return samples_to_prometheus(store_.snapshot_delta(prometheus_since_, full));
}

std::string DeltaExporter::json(bool full) {
  util::MutexLock lock(mutex_);
  return samples_to_json(store_.snapshot_delta(json_since_, full));
}

std::vector<Sample> DeltaExporter::delta_samples(bool full) {
  util::MutexLock lock(mutex_);
  return store_.snapshot_delta(samples_since_, full);
}

PeriodicReporter::PeriodicReporter(const Registry& store, double period_s,
                                   util::LogLevel level)
    : store_(store), period_s_(period_s), level_(level) {}

PeriodicReporter::~PeriodicReporter() { stop(); }

void PeriodicReporter::set_snapshot_file(std::string path) {
  util::MutexLock lock(mutex_);
  snapshot_path_ = std::move(path);
}

void PeriodicReporter::write_snapshot_file() {
  std::string path;
  {
    util::MutexLock lock(mutex_);
    path = snapshot_path_;
  }
  if (path.empty()) return;
  // Write-then-rename so a reader (or a crash mid-write) never sees a
  // half-written exposition.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      PROBEMON_LOG(util::LogLevel::kWarn)
          << "PeriodicReporter: cannot write " << tmp;
      return;
    }
    out << to_prometheus(store_);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    PROBEMON_LOG(util::LogLevel::kWarn)
        << "PeriodicReporter: rename to " << path << " failed: "
        << ec.message();
  }
}

void PeriodicReporter::start() {
  util::MutexLock lock(mutex_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { run(); });
}

void PeriodicReporter::stop() {
  std::thread worker;
  {
    util::MutexLock lock(mutex_);
    if (!started_) return;
    stop_ = true;
    worker = std::move(thread_);
  }
  cv_.notify_all();
  if (worker.joinable()) worker.join();
  write_snapshot_file();  // final state, even if no tick ever fired
  util::MutexLock lock(mutex_);
  started_ = false;
}

void PeriodicReporter::run() {
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(period_s_));
  for (;;) {
    {
      util::MutexLock lock(mutex_);
      const auto deadline = std::chrono::steady_clock::now() + period;
      while (!stop_) {
        if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      if (stop_) return;
    }
    // Render and write outside the lock: neither touches guarded state,
    // and a slow sink must not block set_snapshot_file()/stop().
    PROBEMON_LOG(level_) << "telemetry snapshot\n" << render_human(store_);
    write_snapshot_file();
  }
}

}  // namespace probemon::telemetry
