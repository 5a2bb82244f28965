#include "runtime/http_routes.hpp"

#include <stdexcept>
#include <string>

#include "telemetry/history/query.hpp"
#include "telemetry/json.hpp"

namespace probemon::runtime {

std::string watches_to_json(const AsyncPresenceService& service) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("watches");
  w.begin_array();
  for (const auto& info : service.snapshotWatches()) {
    w.begin_object();
    w.key("device");
    w.value(static_cast<std::uint64_t>(info.device));
    w.key("state");
    w.value(to_string(info.state));
    w.key("last_change");
    w.value(info.last_change);
    w.key("last_rtt");
    w.value(info.last_rtt);
    w.key("consecutive_failures");
    w.value(static_cast<std::uint64_t>(info.consecutive_failures));
    w.key("probes_sent");
    w.value(info.probes_sent);
    w.key("cycles_succeeded");
    w.value(info.cycles_succeeded);
    w.key("cycles_failed");
    w.value(info.cycles_failed);
    w.key("next_probe_due");
    w.value(info.next_probe_due);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void register_watch_routes(telemetry::HttpServer& server,
                           const AsyncPresenceService& service) {
  server.handle("/watches", [&service](const telemetry::HttpRequest&) {
    return telemetry::HttpResponse{200, "application/json; charset=utf-8",
                                   watches_to_json(service)};
  });
}

void register_healthz_route(telemetry::HttpServer& server,
                            ObservabilitySources sources) {
  server.handle("/healthz", [&server, sources](
                                const telemetry::HttpRequest&) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("status");
    w.value("ok");
    w.key("uptime_seconds");
    w.value(server.uptime_seconds());
    w.key("requests_served");
    w.value(server.requests_served());
    if (sources.registry) {
      w.key("registry_metrics");
      w.value(static_cast<std::uint64_t>(sources.registry->size()));
    }
    if (sources.tracer) {
      w.key("tracer_recorded");
      w.value(sources.tracer->recorded());
      w.key("tracer_capacity");
      w.value(static_cast<std::uint64_t>(sources.tracer->capacity()));
    }
    if (sources.service) {
      w.key("watches");
      w.value(static_cast<std::uint64_t>(sources.service->watch_count()));
    }
    if (sources.auditor) {
      w.key("invariant_violations_total");
      w.value(sources.auditor->total_violations());
      w.key("invariant_violations");
      w.begin_object();
      for (std::size_t i = 0; i < check::kInvariantCount; ++i) {
        const auto invariant = static_cast<check::Invariant>(i);
        w.key(check::to_string(invariant));
        w.value(sources.auditor->violations(invariant));
      }
      w.end_object();
    }
    w.end_object();
    return telemetry::HttpResponse{200, "application/json; charset=utf-8",
                                   w.str()};
  });
}

void register_query_routes(telemetry::HttpServer& server,
                           const telemetry::TimeSeriesHistory& history) {
  server.handle("/query", [&history](const telemetry::HttpRequest& request) {
    const auto expr_it = request.query.find("expr");
    if (expr_it == request.query.end() || expr_it->second.empty()) {
      return telemetry::json_error_response(400, "missing ?expr=");
    }
    double range_s = history.sample_period_s() * 60.0;
    const auto range_it = request.query.find("range");
    if (range_it != request.query.end()) {
      std::size_t used = 0;
      double parsed = 0.0;
      try {
        parsed = std::stod(range_it->second, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != range_it->second.size() || !(parsed > 0.0)) {
        return telemetry::json_error_response(
            400, "range must be a positive number of seconds (got '" +
                     range_it->second + "')");
      }
      range_s = parsed;
    }
    telemetry::QueryExpr expr;
    try {
      expr = telemetry::parse_query(expr_it->second);
    } catch (const std::invalid_argument& e) {
      return telemetry::json_error_response(400, e.what());
    }
    const double value = telemetry::eval_query(expr, history, range_s);
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("expr");
    w.value(expr_it->second);
    w.key("fn");
    w.value(telemetry::to_string(expr.fn));
    w.key("series");
    w.value(expr.series);
    w.key("range_s");
    w.value(expr.range_s > 0.0 ? expr.range_s : range_s);
    w.key("as_of");
    w.value(history.last_sample_time());
    w.key("value");
    w.value(value);
    w.end_object();
    return telemetry::HttpResponse{200, "application/json; charset=utf-8",
                                   w.str()};
  });
}

void register_alert_routes(telemetry::HttpServer& server,
                           const telemetry::AlertEngine& alerts) {
  server.handle("/alerts", [&alerts](const telemetry::HttpRequest& request) {
    std::string filter;
    const auto it = request.query.find("state");
    if (it != request.query.end()) {
      filter = it->second;
      if (filter != "inactive" && filter != "pending" && filter != "firing" &&
          filter != "resolved") {
        return telemetry::json_error_response(
            400, "state must be inactive, pending, firing or resolved (got '" +
                     filter + "')");
      }
    }
    return telemetry::HttpResponse{200, "application/json; charset=utf-8",
                                   telemetry::alerts_to_json(alerts, filter)};
  });
}

void register_observability_routes(telemetry::HttpServer& server,
                                   ObservabilitySources sources) {
  if (sources.registry) {
    telemetry::register_metrics_routes(server, *sources.registry);
  }
  if (sources.tracer) {
    telemetry::register_trace_routes(server, *sources.tracer);
  }
  if (sources.service) register_watch_routes(server, *sources.service);
  if (sources.history) register_query_routes(server, *sources.history);
  if (sources.alerts) register_alert_routes(server, *sources.alerts);
  register_healthz_route(server, sources);
  server.handle("/", [&server](const telemetry::HttpRequest&) {
    std::string body = "probemon observability endpoint\n\nroutes:\n";
    for (const auto& route : server.routes()) {
      body += "  " + route + '\n';
    }
    body += "\n/trace takes ?format=chrome for Perfetto / "
            "chrome://tracing\n";
    return telemetry::HttpResponse{200, "text/plain; charset=utf-8", body};
  });
}

}  // namespace probemon::runtime
