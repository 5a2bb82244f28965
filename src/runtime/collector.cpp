#include "runtime/collector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace probemon::runtime {

using telemetry::Labels;
using telemetry::MetricType;
using telemetry::Sample;

namespace {

/// Incoming label sets may not carry their own "agent" label — the
/// collector owns that dimension.
Labels strip_agent_label(const Labels& labels) {
  Labels out;
  out.reserve(labels.size());
  for (const auto& [k, v] : labels) {
    if (k != "agent") out.emplace_back(k, v);
  }
  return out;
}

Labels with_agent(const Labels& labels, const std::string& agent) {
  Labels out = labels;
  out.emplace_back("agent", agent);
  return out;
}

/// Write one sample's absolute state into a store (ingestion
/// semantics: overwrite, don't accumulate — re-delivery is idempotent).
void write_absolute(telemetry::Registry& store, const Sample& sample,
                    const Labels& labels) {
  switch (sample.type) {
    case MetricType::kCounter:
      store.counter(sample.name, sample.help, labels)
          .reset(static_cast<std::uint64_t>(sample.value));
      break;
    case MetricType::kGauge:
      store.gauge(sample.name, sample.help, labels).set(sample.value);
      break;
    case MetricType::kHistogram: {
      auto* hist =
          &store.histogram(sample.name, sample.bounds, sample.help, labels);
      if (hist->upper_bounds() != sample.bounds) {
        // The agent rebucketed between reports; replace the series.
        store.remove(sample.name, labels);
        hist = &store.histogram(sample.name, sample.bounds, sample.help,
                                labels);
      }
      hist->reset_to(sample.buckets, sample.count, sample.sum);
      break;
    }
  }
}

}  // namespace

namespace {

constexpr char kStalenessGauge[] = "probemon_collector_agent_staleness_seconds";
constexpr char kDeadlineGauge[] = "probemon_collector_agent_deadline_seconds";
constexpr char kAbsentGauge[] = "probemon_collector_agent_absent";
constexpr char kAbsentRule[] = "agent_absent";

/// The adaptation observes pc in these units so sub-second push gaps
/// still resolve (pc is integral).
constexpr double kTicksPerSecond = 1000.0;

}  // namespace

MetricsCollector::MetricsCollector(CollectorPresenceConfig presence)
    : presence_(presence) {
  // Transpose SAPP (paper eq. 1) onto push arrivals: the adaptation
  // sees pc = elapsed ticks and t = push count, so l_exp = ticks/push
  // (the observed inter-push gap) and delta is the staleness deadline
  // in seconds. See the class comment.
  adapt_config_.alpha_inc = presence_.alpha_inc;
  adapt_config_.alpha_dec = presence_.alpha_dec;
  adapt_config_.beta = presence_.beta;
  adapt_config_.l_ideal = presence_.expected_period_s * kTicksPerSecond;
  adapt_config_.delta_min = presence_.deadline_min_s;
  adapt_config_.delta_max = presence_.deadline_max_s;
  adapt_config_.initial_delay = presence_.deadline_initial_s;
  adapt_config_.validate();
  const auto start = std::chrono::steady_clock::now();
  now_fn_ = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
}

void MetricsCollector::set_clock(std::function<double()> now_fn) {
  if (!now_fn) throw std::invalid_argument("collector clock must be callable");
  util::MutexLock lock(mutex_);
  now_fn_ = std::move(now_fn);
}

void MetricsCollector::attach_alert_engine(telemetry::AlertEngine& engine) {
  util::MutexLock lock(mutex_);
  telemetry::AlertRule rule;
  rule.name = kAbsentRule;
  rule.op = telemetry::AlertOp::kGt;
  rule.threshold = 0.0;  // breach signal is the adaptive deadline check
  rule.for_s = presence_.absent_for_s;
  rule.summary = "agent stopped pushing past its adaptive deadline";
  engine.add_condition_rule(rule);
  alert_engine_ = &engine;
}

void MetricsCollector::export_presence(const std::string& agent,
                                       const Presence& presence) {
  const Labels labels{{"agent", agent}};
  self_.gauge(kStalenessGauge,
              "Seconds since the agent's last ingested report", labels)
      .set(presence.staleness_s);
  self_.gauge(kDeadlineGauge,
              "Adaptive staleness deadline for the agent (SAPP eq. 1 on "
              "push arrivals)",
              labels)
      .set(presence.adaptation.delta());
  self_.gauge(kAbsentGauge, "1 while the agent is past its deadline, else 0",
              labels)
      .set(presence.absent ? 1.0 : 0.0);
}

void MetricsCollector::observe_push(const std::string& agent, double now) {
  auto it = presence_by_agent_.find(agent);
  if (it == presence_by_agent_.end()) {
    it = presence_by_agent_.emplace(agent, Presence(adapt_config_)).first;
  }
  Presence& presence = it->second;
  ++presence.reports;
  const auto ticks = static_cast<std::uint64_t>(
      std::llround(std::max(0.0, now) * kTicksPerSecond));
  presence.adaptation.observe(ticks, static_cast<double>(presence.reports));
  presence.last_push_t = now;
  presence.staleness_s = 0.0;
  const bool was_absent = presence.absent;
  presence.absent = false;
  export_presence(agent, presence);
  if (alert_engine_ != nullptr && was_absent) {
    alert_engine_->set_condition(kAbsentRule, {{"agent", agent}}, false, 0.0,
                                 now);
  }
}

std::size_t MetricsCollector::update_presence() {
  util::MutexLock lock(mutex_);
  const double now = now_fn_();
  std::size_t absent = 0;
  for (auto& [agent, presence] : presence_by_agent_) {
    presence.staleness_s = std::max(0.0, now - presence.last_push_t);
    presence.absent = presence.staleness_s > presence.adaptation.delta();
    if (presence.absent) ++absent;
    export_presence(agent, presence);
    if (alert_engine_ != nullptr) {
      alert_engine_->set_condition(kAbsentRule, {{"agent", agent}},
                                   presence.absent, presence.staleness_s, now);
    }
  }
  self_.gauge("probemon_collector_agents", "Agents known to the collector")
      .set(static_cast<double>(presence_by_agent_.size()));
  self_.gauge("probemon_collector_agents_absent",
              "Agents currently past their adaptive deadline")
      .set(static_cast<double>(absent));
  return absent;
}

std::vector<MetricsCollector::AgentPresence> MetricsCollector::agent_presence()
    const {
  util::MutexLock lock(mutex_);
  std::vector<AgentPresence> out;
  out.reserve(presence_by_agent_.size());
  for (const auto& [agent, presence] : presence_by_agent_) {
    AgentPresence info;
    info.agent = agent;
    info.absent = presence.absent;
    info.last_push_t = presence.last_push_t;
    info.staleness_s = presence.staleness_s;
    info.deadline_s = presence.adaptation.delta();
    info.reports = presence.reports;
    out.push_back(std::move(info));
  }
  return out;  // std::map: sorted by agent id
}

std::size_t MetricsCollector::ingest(std::string_view json_body) {
  return ingest(telemetry::parse_metrics_json(json_body));
}

void MetricsCollector::apply_sample(telemetry::Registry& agent_view,
                                    const Sample& sample,
                                    const std::string& agent) {
  const Labels labels = strip_agent_label(sample.labels);
  write_absolute(agent_view, sample, labels);
  write_absolute(merged_, sample, with_agent(labels, agent));
}

void MetricsCollector::remove_sample(telemetry::Registry& agent_view,
                                     const Sample& sample,
                                     const std::string& agent) {
  agent_view.remove(sample.name, sample.labels);
  merged_.remove(sample.name, with_agent(sample.labels, agent));
}

std::size_t MetricsCollector::ingest(
    const telemetry::MetricsDocument& document) {
  if (document.agent.empty()) {
    throw std::runtime_error("MetricsCollector: report carries no agent id");
  }
  util::MutexLock lock(mutex_);
  auto& agent_view = agents_[document.agent];
  if (!agent_view) agent_view = std::make_unique<telemetry::Registry>();

  if (document.full) {
    // Absolute state: any series the agent previously reported but no
    // longer does is gone — drop it from both views.
    std::set<std::string> reported;
    for (const Sample& s : document.samples) {
      reported.insert(
          telemetry::detail::make_key(s.name, strip_agent_label(s.labels)));
    }
    for (const Sample& old : agent_view->snapshot()) {
      if (reported.count(telemetry::detail::make_key(old.name, old.labels)) ==
          0) {
        remove_sample(*agent_view, old, document.agent);
      }
    }
  }
  for (const Sample& s : document.samples) {
    apply_sample(*agent_view, s, document.agent);
  }
  ++reports_;
  samples_ += document.samples.size();
  observe_push(document.agent, now_fn_());
  return document.samples.size();
}

std::vector<std::string> MetricsCollector::agents() const {
  util::MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(agents_.size());
  for (const auto& [agent, view] : agents_) out.push_back(agent);
  return out;  // std::map: already sorted
}

std::size_t MetricsCollector::agent_count() const {
  util::MutexLock lock(mutex_);
  return agents_.size();
}

bool MetricsCollector::forget(const std::string& agent) {
  util::MutexLock lock(mutex_);
  auto it = agents_.find(agent);
  if (it == agents_.end()) return false;
  for (const Sample& s : it->second->snapshot()) {
    merged_.remove(s.name, with_agent(s.labels, agent));
  }
  agents_.erase(it);
  // Presence state goes with the agent: gauges are removed (not zeroed)
  // so a later merge_from of self_metrics() cannot resurrect them.
  presence_by_agent_.erase(agent);
  const Labels labels{{"agent", agent}};
  self_.remove(kStalenessGauge, labels);
  self_.remove(kDeadlineGauge, labels);
  self_.remove(kAbsentGauge, labels);
  if (alert_engine_ != nullptr) {
    alert_engine_->remove_condition(kAbsentRule, labels);
  }
  return true;
}

std::vector<Sample> MetricsCollector::agent_snapshot(
    const std::string& agent) const {
  util::MutexLock lock(mutex_);
  auto it = agents_.find(agent);
  if (it == agents_.end()) return {};
  return it->second->snapshot();
}

std::uint64_t MetricsCollector::reports_ingested() const {
  util::MutexLock lock(mutex_);
  return reports_;
}

std::uint64_t MetricsCollector::samples_ingested() const {
  util::MutexLock lock(mutex_);
  return samples_;
}

void register_collector_routes(telemetry::HttpServer& server,
                               MetricsCollector& collector) {
  server.handle_post(
      "/push", [&collector](const telemetry::HttpRequest& request) {
        std::size_t absorbed = 0;
        try {
          absorbed = collector.ingest(request.body);
        } catch (const std::exception& e) {
          return telemetry::error_response(400, e.what());
        }
        telemetry::JsonWriter w;
        w.begin_object();
        w.key("ok");
        w.value(true);
        w.key("samples");
        w.value(static_cast<std::uint64_t>(absorbed));
        w.end_object();
        return telemetry::HttpResponse{200, "application/json; charset=utf-8",
                                       w.str()};
      });
  server.handle("/agents", [&collector](
                               const telemetry::HttpRequest& request) {
    std::string filter;
    const auto it = request.query.find("state");
    if (it != request.query.end()) {
      filter = it->second;
      if (filter != "ok" && filter != "absent") {
        return telemetry::json_error_response(
            400, "state must be ok or absent (got '" + filter + "')");
      }
    }
    collector.update_presence();
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("reports_ingested");
    w.value(collector.reports_ingested());
    w.key("samples_ingested");
    w.value(collector.samples_ingested());
    w.key("agents");
    w.begin_array();
    for (const auto& presence : collector.agent_presence()) {
      if (!filter.empty() && (filter == "absent") != presence.absent) {
        continue;
      }
      w.begin_object();
      w.key("agent");
      w.value(presence.agent);
      w.key("state");
      w.value(presence.absent ? "absent" : "ok");
      w.key("series");
      w.value(static_cast<std::uint64_t>(
          collector.agent_snapshot(presence.agent).size()));
      w.key("reports");
      w.value(presence.reports);
      w.key("staleness_s");
      w.value(presence.staleness_s);
      w.key("deadline_s");
      w.value(presence.deadline_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return telemetry::HttpResponse{200, "application/json; charset=utf-8",
                                   w.str()};
  });
}

}  // namespace probemon::runtime
