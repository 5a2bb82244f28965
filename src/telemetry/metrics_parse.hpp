// Parser for the JSON metrics documents emitted by samples_to_json()
// and the agent→collector push protocol (runtime/metrics_push.hpp).
//
// The document shape is:
//
//   {
//     "agent":  "node-7",      // optional: reporting agent id
//     "full":   true,          // optional: absolute state, not a delta
//     "metrics": [
//       {"name": "...", "type": "counter", "help": "...",
//        "labels": {"device": "7"}, "value": 42},
//       {"name": "...", "type": "histogram", "count": 3, "sum": 1.5,
//        "bounds": [0.1, 1.0], "buckets": [1, 1, 1]},
//       ...
//     ]
//   }
//
// Unknown top-level and per-metric keys are ignored (forward
// compatibility with newer agents); malformed JSON, metrics missing
// required fields, and counter values or histogram counts/buckets that
// are not counts in [0, 2^64) throw std::runtime_error with a
// position-annotated message. This is the one place the repo parses
// JSON — everything else only emits it (json.hpp).
#pragma once

#include <string>
#include <string_view>

#include "telemetry/registry.hpp"

namespace probemon::telemetry {

/// One parsed push/scrape document.
struct MetricsDocument {
  std::vector<Sample> samples;
  std::string agent;  ///< "" when the document carries no agent id
  bool full = false;  ///< absolute state (collector resets the agent view)
};

/// Parse a metrics JSON document. Throws std::runtime_error on
/// malformed input.
MetricsDocument parse_metrics_json(std::string_view text);

}  // namespace probemon::telemetry
