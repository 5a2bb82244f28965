#include "runtime/metrics_push.hpp"

#include <stdexcept>

#include "telemetry/export.hpp"
#include "telemetry/http_client.hpp"
#include "telemetry/json.hpp"

namespace probemon::runtime {

MetricsPusher::MetricsPusher(const telemetry::Registry& store,
                             Config config)
    : store_(store), config_(std::move(config)) {
  if (config_.agent.empty()) {
    throw std::invalid_argument("MetricsPusher: agent id required");
  }
  if (config_.port == 0) {
    throw std::invalid_argument("MetricsPusher: collector port required");
  }
}

bool MetricsPusher::push_once() {
  std::vector<telemetry::Sample> samples;
  bool full;
  {
    util::MutexLock lock(mutex_);
    full = need_full_;
    samples = store_.snapshot_delta(since_, full);
  }
  if (samples.empty() && !full) {
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return true;  // nothing changed; the collector is already current
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.key("agent");
  w.value(config_.agent);
  w.key("full");
  w.value(full);
  telemetry::write_samples_json(w, samples);
  w.end_object();

  const telemetry::HttpResult result =
      telemetry::http_post(config_.host, config_.port, config_.path, w.str(),
                           "application/json; charset=utf-8",
                           config_.timeout_s);
  util::MutexLock lock(mutex_);
  if (result.ok()) {
    need_full_ = false;
    ok_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // The collector may have missed this delta (or restarted and lost
  // everything): resynchronize with absolute state next time.
  need_full_ = true;
  failed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace probemon::runtime
