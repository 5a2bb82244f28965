#include "telemetry/alerts/alert_engine.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace probemon::telemetry {

const char* to_string(AlertState state) noexcept {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "?";
}

const char* to_string(AlertOp op) noexcept {
  switch (op) {
    case AlertOp::kGt:
      return ">";
    case AlertOp::kGe:
      return ">=";
    case AlertOp::kLt:
      return "<";
    case AlertOp::kLe:
      return "<=";
  }
  return "?";
}

namespace {

bool compare(AlertOp op, double value, double threshold) {
  switch (op) {
    case AlertOp::kGt:
      return value > threshold;
    case AlertOp::kGe:
      return value >= threshold;
    case AlertOp::kLt:
      return value < threshold;
    case AlertOp::kLe:
      return value <= threshold;
  }
  return false;
}

}  // namespace

AlertEngine::AlertEngine(const TimeSeriesHistory* history,
                         double default_range_s)
    : history_(history), default_range_s_(default_range_s) {
  if (!(default_range_s_ > 0.0)) {
    throw std::invalid_argument("alert default_range_s must be > 0");
  }
}

void AlertEngine::add_rule(const AlertRule& rule) {
  if (rule.name.empty()) throw std::invalid_argument("alert rule needs a name");
  QueryExpr parsed = parse_query(rule.expr);  // throws on malformed expr
  util::MutexLock lock(mutex_);
  auto [it, inserted] = rules_.emplace(rule.name, Rule{});
  if (!inserted) {
    throw std::logic_error("duplicate alert rule '" + rule.name + "'");
  }
  it->second.spec = rule;
  it->second.parsed = std::move(parsed);
  // Expression rules have exactly one instance, present from the start
  // so /alerts shows the rule as inactive rather than omitting it.
  it->second.instances.emplace(std::string(), Instance{});
  if (registry_ != nullptr) {
    export_gauge(it->second, it->second.instances.begin()->second);
  }
}

void AlertEngine::add_condition_rule(const AlertRule& rule) {
  if (rule.name.empty()) throw std::invalid_argument("alert rule needs a name");
  util::MutexLock lock(mutex_);
  auto [it, inserted] = rules_.emplace(rule.name, Rule{});
  if (!inserted) {
    throw std::logic_error("duplicate alert rule '" + rule.name + "'");
  }
  it->second.spec = rule;
  it->second.condition = true;
}

std::size_t AlertEngine::rule_count() const {
  util::MutexLock lock(mutex_);
  return rules_.size();
}

void AlertEngine::bind_registry(Registry& registry) {
  util::MutexLock lock(mutex_);
  registry_ = &registry;
  for (const auto& [name, rule] : rules_) {
    for (const auto& [key, instance] : rule.instances) {
      export_gauge(rule, instance);
    }
  }
}

Labels AlertEngine::instance_labels(const Rule& rule,
                                    const Instance& instance) const {
  Labels labels;
  labels.emplace_back("rule", rule.spec.name);
  for (const auto& label : rule.spec.labels) labels.push_back(label);
  for (const auto& label : instance.labels) labels.push_back(label);
  return labels;
}

void AlertEngine::export_gauge(const Rule& rule, const Instance& instance) {
  if (registry_ == nullptr) return;
  registry_
      ->gauge("probemon_alerts_firing",
              "1 while the alert rule instance is firing, else 0",
              instance_labels(rule, instance))
      .set(instance.state == AlertState::kFiring ? 1.0 : 0.0);
}

void AlertEngine::step(Rule& rule, Instance& instance, bool breached,
                       double value, double t) {
  instance.value = value;
  switch (instance.state) {
    case AlertState::kInactive:
    case AlertState::kResolved:
      if (breached) {
        instance.pending_since = t;
        if (rule.spec.for_s <= 0.0) {
          instance.state = AlertState::kFiring;
          instance.firing_since = t;
          ++instance.fire_count;
        } else {
          instance.state = AlertState::kPending;
        }
      }
      break;
    case AlertState::kPending:
      if (!breached) {
        instance.state = AlertState::kInactive;
      } else if (t - instance.pending_since >= rule.spec.for_s) {
        instance.state = AlertState::kFiring;
        instance.firing_since = t;
        ++instance.fire_count;
      }
      break;
    case AlertState::kFiring:
      if (!breached) {
        instance.state = AlertState::kResolved;
        instance.resolved_at = t;
      }
      break;
  }
  export_gauge(rule, instance);
}

void AlertEngine::evaluate(double t) {
  util::MutexLock lock(mutex_);
  last_eval_time_ = t;
  for (auto& [name, rule] : rules_) {
    if (rule.condition) continue;
    double value = std::numeric_limits<double>::quiet_NaN();
    if (history_ != nullptr) {
      value = eval_query(rule.parsed, *history_, default_range_s_);
    }
    // NaN (insufficient history) never breaches; a firing alert whose
    // data window empties resolves rather than staying stuck.
    const bool breached =
        !std::isnan(value) && compare(rule.spec.op, value, rule.spec.threshold);
    step(rule, rule.instances[std::string()], breached, value, t);
  }
}

void AlertEngine::set_condition(const std::string& rule_name,
                                const Labels& instance_labels, bool breached,
                                double value, double t) {
  util::MutexLock lock(mutex_);
  auto it = rules_.find(rule_name);
  if (it == rules_.end() || !it->second.condition) {
    throw std::logic_error("unknown condition rule '" + rule_name + "'");
  }
  if (t > last_eval_time_) last_eval_time_ = t;
  const std::string key = detail::make_key("i", instance_labels);
  auto [inst_it, inserted] = it->second.instances.emplace(key, Instance{});
  if (inserted) inst_it->second.labels = instance_labels;
  step(it->second, inst_it->second, breached, value, t);
}

bool AlertEngine::remove_condition(const std::string& rule_name,
                                   const Labels& labels) {
  util::MutexLock lock(mutex_);
  auto it = rules_.find(rule_name);
  if (it == rules_.end() || !it->second.condition) return false;
  const std::string key = detail::make_key("i", labels);
  auto inst_it = it->second.instances.find(key);
  if (inst_it == it->second.instances.end()) return false;
  if (registry_ != nullptr) {
    registry_->remove("probemon_alerts_firing",
                      instance_labels(it->second, inst_it->second));
  }
  it->second.instances.erase(inst_it);
  return true;
}

std::vector<AlertEngine::AlertStatus> AlertEngine::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<AlertStatus> out;
  for (const auto& [name, rule] : rules_) {
    for (const auto& [key, instance] : rule.instances) {
      AlertStatus status;
      status.rule = rule.spec.name;
      status.labels = instance_labels(rule, instance);
      status.state = instance.state;
      status.value = instance.value;
      status.threshold = rule.spec.threshold;
      status.op = rule.spec.op;
      status.expr = rule.spec.expr;
      status.summary = rule.spec.summary;
      status.pending_since = instance.pending_since;
      status.firing_since = instance.firing_since;
      status.resolved_at = instance.resolved_at;
      status.fire_count = instance.fire_count;
      out.push_back(std::move(status));
    }
  }
  // rules_ is name-ordered and instances key-ordered, so `out` is
  // already deterministically sorted by (rule, instance labels).
  return out;
}

double AlertEngine::last_eval_time() const {
  util::MutexLock lock(mutex_);
  return last_eval_time_;
}

std::string alerts_to_json(const AlertEngine& engine,
                           const std::string& state_filter) {
  JsonWriter w;
  w.begin_object();
  w.key("as_of");
  w.value(engine.last_eval_time());
  w.key("alerts");
  w.begin_array();
  for (const auto& status : engine.snapshot()) {
    if (!state_filter.empty() && state_filter != to_string(status.state)) {
      continue;
    }
    w.begin_object();
    w.key("rule");
    w.value(status.rule);
    w.key("state");
    w.value(to_string(status.state));
    w.key("value");
    w.value(status.value);
    w.key("threshold");
    w.value(status.threshold);
    w.key("op");
    w.value(to_string(status.op));
    if (!status.expr.empty()) {
      w.key("expr");
      w.value(status.expr);
    }
    if (!status.summary.empty()) {
      w.key("summary");
      w.value(status.summary);
    }
    w.key("labels");
    w.begin_object();
    for (const auto& [k, v] : status.labels) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    w.key("pending_since");
    w.value(status.pending_since);
    w.key("firing_since");
    w.value(status.firing_since);
    w.key("resolved_at");
    w.value(status.resolved_at);
    w.key("fire_count");
    w.value(status.fire_count);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace probemon::telemetry
