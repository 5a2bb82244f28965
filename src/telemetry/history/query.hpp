// Query expressions over TimeSeriesHistory: the tiny PromQL-flavoured
// grammar shared by the /query endpoint and the alert engine's rules.
//
//   expr     := fn '(' [q ','] series ')' | series
//   fn       := rate | increase | avg | min | max | last | quantile
//   series   := name [ '{' k '="' v '"' {, ...} '}' ] [ '[' range ']' ]
//   range    := number [ 's' | 'm' | 'h' ]          (default unit: s)
//
// Examples:
//   probemon_watches
//   rate(probemon_presence_transitions_total{state="absent"}[120])
//   quantile(0.99, probemon_detection_latency_seconds[60s])
//   rate(probemon_device_probes_received_total{device="3"}[30])
//
// parse_query throws std::invalid_argument with a byte position on any
// malformed input; eval_query is pure over the history's sampled state
// (NaN = insufficient data).
#pragma once

#include <string>

#include "telemetry/history/history.hpp"

namespace probemon::telemetry {

enum class QueryFn { kLast, kRate, kIncrease, kAvg, kMin, kMax, kQuantile };

const char* to_string(QueryFn fn) noexcept;

struct QueryExpr {
  QueryFn fn = QueryFn::kLast;
  double q = 0.0;  ///< quantile() only
  std::string series;
  Labels labels;
  double range_s = 0.0;  ///< 0 = unset; eval uses the supplied default
};

/// Parse `text`; throws std::invalid_argument on malformed input.
QueryExpr parse_query(const std::string& text);

/// Evaluate against sampled history. `default_range_s` applies when the
/// expression carries no [range]. Returns NaN for "no data".
double eval_query(const QueryExpr& expr, const TimeSeriesHistory& history,
                  double default_range_s);

}  // namespace probemon::telemetry
