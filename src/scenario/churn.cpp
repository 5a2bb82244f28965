#include "scenario/churn.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace probemon::scenario {

BurstLeave::BurstLeave(double at, std::size_t leave_count)
    : at_(at), leave_count_(leave_count) {
  if (!(at >= 0)) throw std::invalid_argument("BurstLeave: at >= 0");
}

void BurstLeave::install(Experiment& exp) {
  exp.sim().at(at_, [this, &exp] {
    for (std::size_t i = 0; i < leave_count_ && exp.active_cp_count() > 0;
         ++i) {
      exp.remove_random_cp();
    }
  });
}

std::string BurstLeave::describe() const {
  std::ostringstream os;
  os << "burst-leave(" << leave_count_ << " @ t=" << at_ << ")";
  return os.str();
}

DynamicUniformChurn::DynamicUniformChurn(std::size_t min_cps,
                                         std::size_t max_cps, double rate)
    : min_cps_(min_cps), max_cps_(max_cps), rate_(rate) {
  if (min_cps == 0 || max_cps < min_cps) {
    throw std::invalid_argument("DynamicUniformChurn: 1 <= min <= max");
  }
  if (!(rate > 0)) throw std::invalid_argument("DynamicUniformChurn: rate>0");
}

void DynamicUniformChurn::install(Experiment& exp) {
  rng_ = exp.sim().fork_rng("churn.dynamic_uniform");
  schedule_next(exp);
}

void DynamicUniformChurn::schedule_next(Experiment& exp) {
  const double dt = -std::log(rng_.next_double_open0()) / rate_;
  exp.sim().schedule_after(dt, [this, &exp] {
    const auto target = static_cast<std::size_t>(
        rng_.uniform_u64(min_cps_, max_cps_));
    exp.set_active_cp_count(target);
    schedule_next(exp);
  });
}

std::string DynamicUniformChurn::describe() const {
  std::ostringstream os;
  os << "dynamic-uniform(U{" << min_cps_ << ".." << max_cps_ << "} @ Exp("
     << rate_ << "))";
  return os.str();
}

PoissonChurn::PoissonChurn(double join_rate, double leave_rate,
                           std::size_t min_cps, std::size_t max_cps)
    : join_rate_(join_rate),
      leave_rate_(leave_rate),
      min_cps_(min_cps),
      max_cps_(max_cps) {
  if (!(join_rate > 0) || !(leave_rate > 0)) {
    throw std::invalid_argument("PoissonChurn: rates > 0");
  }
  if (max_cps < min_cps) {
    throw std::invalid_argument("PoissonChurn: min <= max");
  }
}

void PoissonChurn::install(Experiment& exp) {
  rng_ = exp.sim().fork_rng("churn.poisson");
  schedule_join(exp);
  schedule_leave(exp);
}

void PoissonChurn::schedule_join(Experiment& exp) {
  const double dt = -std::log(rng_.next_double_open0()) / join_rate_;
  exp.sim().schedule_after(dt, [this, &exp] {
    if (exp.active_cp_count() < max_cps_) exp.add_cp();
    schedule_join(exp);
  });
}

void PoissonChurn::schedule_leave(Experiment& exp) {
  const double dt = -std::log(rng_.next_double_open0()) / leave_rate_;
  exp.sim().schedule_after(dt, [this, &exp] {
    if (exp.active_cp_count() > min_cps_) exp.remove_random_cp();
    schedule_leave(exp);
  });
}

std::string PoissonChurn::describe() const {
  std::ostringstream os;
  os << "poisson(join " << join_rate_ << "/s, leave " << leave_rate_
     << "/s, [" << min_cps_ << ", " << max_cps_ << "])";
  return os.str();
}

ScriptedChurn::ScriptedChurn(std::vector<Step> steps)
    : steps_(std::move(steps)) {
  double prev = -1;
  for (const auto& s : steps_) {
    if (s.at < prev) {
      throw std::invalid_argument("ScriptedChurn: steps must be ordered");
    }
    prev = s.at;
  }
}

void ScriptedChurn::install(Experiment& exp) {
  for (const auto& step : steps_) {
    exp.sim().at(step.at, [&exp, target = step.target] {
      exp.set_active_cp_count(target);
    });
  }
}

std::string ScriptedChurn::describe() const {
  std::ostringstream os;
  os << "scripted(" << steps_.size() << " steps)";
  return os.str();
}

}  // namespace probemon::scenario
