// Loopback tests for the HTTP observability endpoint: golden bodies
// for every route, error handling (400/404/405), lifecycle hygiene and
// concurrent GETs (the latter is what the TSan build exercises).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "runtime/http_routes.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/history/history.hpp"
#include "telemetry/http_client.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"

namespace probemon::telemetry {
namespace {

using namespace std::chrono_literals;

/// Minimal blocking HTTP client: one request, read to EOF.
std::string http_request(std::uint16_t port, const std::string& raw) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << "connect to port " << port << ": " << std::strerror(errno);
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = send(fd, raw.data() + off, raw.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  return http_request(port, "GET " + target +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

TEST(HttpServer, StartStopRestartIsClean) {
  HttpServer server;
  EXPECT_EQ(server.port(), 0);
  EXPECT_FALSE(server.running());
  server.start();
  EXPECT_TRUE(server.running());
  const std::uint16_t port = server.port();
  EXPECT_NE(port, 0);
  server.start();  // idempotent
  EXPECT_EQ(server.port(), port);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  server.start();  // restart after stop
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
}

TEST(HttpServer, RestartOnFixedPortWithAcceptAccounting) {
  // Grab an ephemeral port, release it, and rebind it with a second
  // server — the bind-retry + SO_REUSEADDR path a restarting collector
  // on a pinned port exercises.
  std::uint16_t port = 0;
  {
    HttpServer first;
    first.start();
    port = first.port();
    first.stop();
  }

  HttpServer::Config config;
  config.port = port;
  HttpServer server(config);
  Registry registry;
  server.instrument(registry);
  server.handle("/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });
  server.start();
  EXPECT_EQ(server.port(), port);
  EXPECT_EQ(body_of(http_get(server.port(), "/ping")), "pong\n");
  EXPECT_GE(server.connections_accepted(), 1u);
  EXPECT_EQ(server.connections_shed(), 0u);
  EXPECT_EQ(server.accept_backlog(), 0u);

  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("probemon_http_accept_backlog"), std::string::npos);
  EXPECT_NE(text.find("probemon_http_connections_accepted_total"),
            std::string::npos);
  EXPECT_NE(text.find("probemon_http_connections_shed_total"),
            std::string::npos);

  // Same object, same pinned port, straight back up.
  server.stop();
  server.start();
  EXPECT_EQ(server.port(), port);
  EXPECT_EQ(body_of(http_get(server.port(), "/ping")), "pong\n");
  server.stop();
}

TEST(HttpServer, MetricsRouteServesPrometheusGolden) {
  Registry registry;
  registry.counter("probemon_watch_cycles_total", "Completed cycles",
                   {{"result", "success"}})
      .inc(5);
  registry.gauge("probemon_watches", "Watched devices").set(3);
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  // No concurrent writers, so the body must equal the exporter output.
  EXPECT_EQ(body_of(response), to_prometheus(registry));
  EXPECT_NE(body_of(response).find(
                "probemon_watch_cycles_total{result=\"success\"} 5"),
            std::string::npos);
}

TEST(HttpServer, MetricsJsonRouteServesSnapshot) {
  Registry registry;
  registry.counter("probemon_test_total", "A counter").inc(2);
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();

  const std::string response = http_get(server.port(), "/metrics.json");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(body_of(response), to_json(registry));
}

TEST(HttpServer, TraceRouteServesJsonAndChromeFormats) {
  ProbeCycleTracer tracer(16);
  ProbeCycleTrace trace;
  trace.cp = 4;
  trace.device = 1;
  trace.cycle = 9;
  trace.start = 1.0;
  trace.end = 1.25;
  trace.attempts = 2;
  trace.success = true;
  trace.rtt = 0.01;
  trace.sends = {1.0, 1.2};
  tracer.record(trace);

  HttpServer server;
  register_trace_routes(server, tracer);
  server.start();

  const std::string json = http_get(server.port(), "/trace");
  EXPECT_EQ(status_line(json), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(json), tracer.to_json());

  const std::string chrome =
      http_get(server.port(), "/trace?format=chrome");
  EXPECT_EQ(status_line(chrome), "HTTP/1.1 200 OK");
  const std::string chrome_body = body_of(chrome);
  EXPECT_EQ(chrome_body, tracer.to_chrome_trace());
  // Structural Chrome trace-event checks: a traceEvents array whose
  // events carry ph/ts/pid (what Perfetto needs to load the file).
  EXPECT_NE(chrome_body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome_body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome_body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome_body.find("\"ts\":"), std::string::npos);
  EXPECT_NE(chrome_body.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(chrome_body.find("\"tid\":4"), std::string::npos);
  // The span starts at the first send (1.0 s -> 1e6 us) and lasts
  // 0.25 s -> 250000 us.
  EXPECT_NE(chrome_body.find("\"ts\":1000000"), std::string::npos);
  EXPECT_NE(chrome_body.find("\"dur\":250000"), std::string::npos);

  const std::string bad = http_get(server.port(), "/trace?format=xml");
  EXPECT_EQ(status_line(bad), "HTTP/1.1 400 Bad Request");
}

TEST(HttpServer, NotFoundUnknownRoute) {
  HttpServer server;
  server.start();
  const std::string response = http_get(server.port(), "/nope");
  EXPECT_EQ(status_line(response), "HTTP/1.1 404 Not Found");
  EXPECT_NE(body_of(response).find("/nope"), std::string::npos);
}

TEST(HttpServer, MethodNotAllowedForNonGet) {
  Registry registry;
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();
  const std::string response = http_request(
      server.port(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_NE(response.find("Allow: GET"), std::string::npos);
}

TEST(HttpServer, MalformedRequestLineIs400) {
  HttpServer server;
  server.start();
  const std::string response =
      http_request(server.port(), "garbage\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 400 Bad Request");
}

TEST(HttpServer, OversizedRequestHeadIs431) {
  HttpServer server({.port = 0, .workers = 1, .max_pending = 4,
                     .max_request_bytes = 256});
  server.start();
  const std::string response = http_request(
      server.port(), "GET /" + std::string(1024, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(response),
            "HTTP/1.1 431 Request Header Fields Too Large");
}

TEST(HttpServer, CountsRequestsAndReportsUptime) {
  HttpServer server;
  server.handle("/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "pong"};
  });
  server.start();
  EXPECT_EQ(server.requests_served(), 0u);
  http_get(server.port(), "/ping");
  http_get(server.port(), "/ping");
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_GE(server.uptime_seconds(), 0.0);
}

TEST(HttpServer, QueryParametersReachHandlers) {
  HttpServer server;
  server.handle("/echo", [](const HttpRequest& request) {
    std::string out;
    for (const auto& [k, v] : request.query) out += k + '=' + v + ';';
    return HttpResponse{200, "text/plain", out};
  });
  server.start();
  const std::string response =
      http_get(server.port(), "/echo?b=2&a=1&flag");
  EXPECT_EQ(body_of(response), "a=1;b=2;flag=;");
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server;
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaput");
  });
  server.start();
  const std::string response = http_get(server.port(), "/boom");
  EXPECT_EQ(status_line(response), "HTTP/1.1 500 Internal Server Error");
  EXPECT_NE(body_of(response).find("kaput"), std::string::npos);
}

// The TSan target: many clients hammering every route while the
// registry keeps moving underneath, then a stop with requests possibly
// in flight.
TEST(HttpServer, ConcurrentGetsAcrossRoutesAreRaceFree) {
  Registry registry;
  auto& counter = registry.counter("probemon_test_total", "moving target");
  ProbeCycleTracer tracer(64);
  HttpServer server({.port = 0, .workers = 4, .max_pending = 64,
                     .max_request_bytes = 8192});
  register_metrics_routes(server, registry);
  register_trace_routes(server, tracer);
  server.start();
  const std::uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop) {
      counter.inc();
      ProbeCycleTrace trace;
      trace.cp = 1;
      trace.device = 2;
      trace.cycle = ++i;
      trace.sends = {0.1 * static_cast<double>(i)};
      tracer.record(trace);
      std::this_thread::sleep_for(100us);
    }
  });

  constexpr int kClients = 6;
  constexpr int kRequests = 15;
  const char* targets[] = {"/metrics", "/metrics.json", "/trace",
                           "/trace?format=chrome", "/missing"};
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        const std::string response =
            http_get(port, targets[(c + r) % std::size(targets)]);
        if (!response.empty()) ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  stop = true;
  writer.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_GE(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequests));
  server.stop();
}

// ------------------------------------------------- runtime route wiring

TEST(HttpRoutes, WatchesAndHealthzOverLiveService) {
  Registry registry;
  ProbeCycleTracer tracer(128);
  check::InvariantAuditor auditor({}, &registry);

  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.005;
  device_config.d_min = 0.02;
  runtime::AsyncDcppDevice device(transport, device_config);

  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.registry = &registry;
  wiring.tracer = &tracer;
  wiring.auditor = &auditor;
  runtime::AsyncPresenceService service(transport, wiring);

  HttpServer server;
  runtime::ObservabilitySources sources;
  sources.registry = &registry;
  sources.tracer = &tracer;
  sources.service = &service;
  sources.auditor = &auditor;
  runtime::register_observability_routes(server, sources);
  server.start();

  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.020;
  cp_config.timeouts.tos = 0.015;
  loop.start();
  service.watch_dcpp(device.id(), cp_config);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!service.present(device.id()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(service.present(device.id()));

  const std::string watches = body_of(http_get(server.port(), "/watches"));
  EXPECT_EQ(watches, runtime::watches_to_json(service));
  EXPECT_NE(watches.find("\"device\":" + std::to_string(device.id())),
            std::string::npos);
  EXPECT_NE(watches.find("\"state\":\"present\""), std::string::npos);

  const std::string healthz_response = http_get(server.port(), "/healthz");
  EXPECT_NE(healthz_response.find(
                "Content-Type: application/json; charset=utf-8"),
            std::string::npos);
  const std::string healthz = body_of(healthz_response);
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz.find("\"watches\":1"), std::string::npos);
  EXPECT_NE(healthz.find("\"registry_metrics\":"), std::string::npos);
  EXPECT_NE(healthz.find("\"tracer_capacity\":128"), std::string::npos);
  // The wired auditor reports its (zero) violation tallies per invariant.
  EXPECT_NE(healthz.find("\"invariant_violations_total\":0"),
            std::string::npos);
  EXPECT_NE(healthz.find("\"dcpp_nt_monotone\":0"), std::string::npos);
  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();

  // The acceptance-criteria metric family must be served live.
  const std::string metrics = body_of(http_get(server.port(), "/metrics"));
  EXPECT_NE(metrics.find("probemon_watch_cycles_total"), std::string::npos);

  const std::string index = body_of(http_get(server.port(), "/"));
  for (const char* route :
       {"/metrics", "/metrics.json", "/healthz", "/watches", "/trace"}) {
    EXPECT_NE(index.find(route), std::string::npos) << route;
  }
  server.stop();
  loop.stop();
}

// ------------------------------------------------ error-path hygiene

std::string header_of(const std::string& response, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const std::size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

TEST(HttpServer, ErrorResponsesCarryContentTypeAndExactLength) {
  HttpServer server;
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaput");
  });
  server.start();
  for (const std::string target : {"/nope", "/boom"}) {
    const std::string response = http_get(server.port(), target);
    EXPECT_EQ(header_of(response, "Content-Type"),
              "text/plain; charset=utf-8")
        << target;
    const std::string body = body_of(response);
    EXPECT_EQ(header_of(response, "Content-Length"),
              std::to_string(body.size()))
        << target;
    EXPECT_EQ(body.back(), '\n') << target;  // curl-friendly trailing \n
  }
}

TEST(HttpServer, MetricsRoutesDeclareCharset) {
  Registry registry;
  registry.counter("probemon_x_total").inc(1);
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(header_of(metrics, "Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string json = http_get(server.port(), "/metrics.json?full=1");
  EXPECT_EQ(header_of(json, "Content-Type"),
            "application/json; charset=utf-8");
}

// ---------------------------------------------------------- POST routes

TEST(HttpServer, PostRouteReceivesBody) {
  HttpServer server;
  server.handle_post("/push", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "got:" + request.body};
  });
  server.start();
  const std::string body = "{\"agent\":\"n1\"}";
  const std::string response = http_request(
      server.port(), "POST /push HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(response), "got:" + body);
}

TEST(HttpServer, PostWithoutContentLengthIs411) {
  HttpServer server;
  server.handle_post("/push", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  server.start();
  const std::string response = http_request(
      server.port(), "POST /push HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 411 Length Required");
}

TEST(HttpServer, OversizedPostBodyIs413) {
  HttpServer server({.port = 0, .max_body_bytes = 64});
  server.handle_post("/push", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  server.start();
  const std::string body(1024, 'x');
  const std::string response = http_request(
      server.port(), "POST /push HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_EQ(status_line(response), "HTTP/1.1 413 Payload Too Large");
}

TEST(HttpServer, GetOnPostOnlyRouteIs405WithAllow) {
  HttpServer server;
  server.handle_post("/push", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  server.start();
  const std::string response = http_get(server.port(), "/push");
  EXPECT_EQ(status_line(response), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_EQ(header_of(response, "Allow"), "POST");
}

// --------------------------------------------------------- delta routes

TEST(HttpServer, MetricsRouteServesDeltasAfterFirstScrape) {
  Registry registry;
  auto& c = registry.counter("probemon_x_total", "X");
  c.inc(1);
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();

  // First scrape: full. Second with nothing changed: empty delta.
  EXPECT_EQ(body_of(http_get(server.port(), "/metrics")),
            to_prometheus(registry));
  EXPECT_EQ(body_of(http_get(server.port(), "/metrics")), "");

  // A change shows up in the next delta; ?full=1 always returns all.
  c.inc(1);
  const std::string delta = body_of(http_get(server.port(), "/metrics"));
  EXPECT_NE(delta.find("probemon_x_total 2"), std::string::npos);
  EXPECT_EQ(body_of(http_get(server.port(), "/metrics?full=1")),
            to_prometheus(registry));
  // ?full=0 is not an escape hatch.
  EXPECT_EQ(body_of(http_get(server.port(), "/metrics?full=0")), "");
}

TEST(HttpServer, TraceRouteSupportsSinceCursor) {
  ProbeCycleTracer tracer(16);
  ProbeCycleTrace trace;
  trace.cp = 1;
  trace.cycle = 1;
  tracer.record(trace);

  HttpServer server;
  register_trace_routes(server, tracer);
  server.start();

  std::uint64_t cursor = 0;
  const std::string first =
      body_of(http_get(server.port(), "/trace?format=json&since=0"));
  EXPECT_EQ(first, tracer.to_json_since(cursor));
  EXPECT_NE(first.find("\"next\":1"), std::string::npos);
  // Nothing new since cursor 1 -> empty trace list, same cursor.
  const std::string quiet =
      body_of(http_get(server.port(), "/trace?format=json&since=1"));
  EXPECT_NE(quiet.find("\"traces\":[]"), std::string::npos);

  const std::string bad =
      http_get(server.port(), "/trace?format=json&since=-1");
  EXPECT_EQ(status_line(bad), "HTTP/1.1 400 Bad Request");
}

// ------------------------------------------------------- HEAD handling

TEST(HttpServer, HeadReturnsHeadersWithoutBody) {
  Registry registry;
  registry.counter("probemon_x_total").inc(3);
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();

  // ?full=1 makes GET and HEAD bodies identical regardless of cursor
  // state, so HEAD's Content-Length must equal the real body size.
  const std::string get = http_get(server.port(), "/metrics.json?full=1");
  const std::string head = http_request(
      server.port(),
      "HEAD /metrics.json?full=1 HTTP/1.1\r\nHost: x\r\n"
      "Connection: close\r\n\r\n");
  EXPECT_EQ(status_line(head), "HTTP/1.1 200 OK");
  EXPECT_EQ(header_of(head, "Content-Length"),
            std::to_string(body_of(get).size()));
  EXPECT_EQ(header_of(head, "Content-Type"), header_of(get, "Content-Type"));
  EXPECT_EQ(body_of(head), "");

  // The blocking client agrees: status + headers, empty body.
  const auto result = http_head("127.0.0.1", server.port(), "/metrics?full=1");
  EXPECT_EQ(result.status, 200);
  EXPECT_TRUE(result.body.empty());
  EXPECT_NE(result.headers.find("Content-Length: "), std::string::npos);
}

TEST(HttpServer, HeadErrorsMirrorGetStatusWithoutBody) {
  HttpServer server;
  server.start();
  const std::string head = http_request(
      server.port(),
      "HEAD /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(status_line(head), "HTTP/1.1 404 Not Found");
  EXPECT_NE(header_of(head, "Content-Length"), "0");
  EXPECT_EQ(body_of(head), "");
}

TEST(HttpServer, HeadOnPostOnlyRouteIs405) {
  HttpServer server;
  server.handle_post("/push", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  server.start();
  const std::string head = http_request(
      server.port(),
      "HEAD /push HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(status_line(head), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_EQ(header_of(head, "Allow"), "POST");
}

TEST(HttpServer, AllowHeaderAdvertisesHead) {
  Registry registry;
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();
  const std::string post = http_request(
      server.port(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(header_of(post, "Allow"), "GET, HEAD");
  const std::string put = http_request(
      server.port(),
      "PUT /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(status_line(put), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_EQ(header_of(put, "Allow"), "GET, HEAD, POST");
}

// ----------------------------------------- malformed query parameters

TEST(HttpServer, MalformedFullFlagIs400WithJsonBody) {
  Registry registry;
  HttpServer server;
  register_metrics_routes(server, registry);
  server.start();
  for (const std::string target :
       {"/metrics?full=2", "/metrics?full=yes", "/metrics.json?full=",
        "/metrics.json?full=x"}) {
    const std::string response = http_get(server.port(), target);
    EXPECT_EQ(status_line(response), "HTTP/1.1 400 Bad Request") << target;
    EXPECT_EQ(header_of(response, "Content-Type"),
              "application/json; charset=utf-8")
        << target;
    const std::string body = body_of(response);
    EXPECT_NE(body.find("\"error\":"), std::string::npos) << body;
    EXPECT_NE(body.find("full must be 0 or 1"), std::string::npos) << body;
    EXPECT_NE(body.find("\"status\":400"), std::string::npos) << body;
  }
  // Valid values still work.
  EXPECT_EQ(status_line(http_get(server.port(), "/metrics?full=1")),
            "HTTP/1.1 200 OK");
}

TEST(HttpServer, MalformedSinceCursorIs400WithJsonBody) {
  ProbeCycleTracer tracer(8);
  HttpServer server;
  register_trace_routes(server, tracer);
  server.start();
  for (const std::string target :
       {"/trace?since=abc", "/trace?since=", "/trace?since=1x",
        "/trace?since=-1"}) {
    const std::string response = http_get(server.port(), target);
    EXPECT_EQ(status_line(response), "HTTP/1.1 400 Bad Request") << target;
    EXPECT_EQ(header_of(response, "Content-Type"),
              "application/json; charset=utf-8")
        << target;
    const std::string body = body_of(response);
    EXPECT_NE(body.find("\"error\":"), std::string::npos) << body;
    EXPECT_NE(body.find("since must be a non-negative integer"),
              std::string::npos)
        << body;
  }
  EXPECT_EQ(status_line(http_get(server.port(), "/trace?since=0")),
            "HTTP/1.1 200 OK");
}

// ------------------------------------------------ /query and /alerts

TEST(HttpRoutes, QueryEndpointEvaluatesExpressions) {
  Registry registry;
  auto& gauge = registry.gauge("probemon_load");
  TimeSeriesHistory history(registry, {.sample_period_s = 1.0, .slots = 16});
  history.track("probemon_load");
  gauge.set(2.0);
  history.sample(1.0);
  gauge.set(4.0);
  history.sample(2.0);

  HttpServer server;
  runtime::ObservabilitySources sources;
  sources.registry = &registry;
  sources.history = &history;
  runtime::register_observability_routes(server, sources);
  server.start();

  const std::string ok =
      http_get(server.port(), "/query?expr=probemon_load");
  EXPECT_EQ(status_line(ok), "HTTP/1.1 200 OK");
  EXPECT_NE(body_of(ok).find("\"value\":4"), std::string::npos)
      << body_of(ok);
  EXPECT_NE(body_of(ok).find("\"as_of\":2"), std::string::npos);

  const std::string avg = http_get(
      server.port(), "/query?expr=avg(probemon_load[10])&range=10");
  EXPECT_NE(body_of(avg).find("\"value\":3"), std::string::npos)
      << body_of(avg);

  // No data in a 0.1 s window -> JSON null, not NaN.
  gauge.set(9.0);
  const std::string nodata = http_get(
      server.port(), "/query?expr=rate(probemon_nope_total[5])");
  EXPECT_EQ(status_line(nodata), "HTTP/1.1 200 OK");
  EXPECT_NE(body_of(nodata).find("\"value\":null"), std::string::npos)
      << body_of(nodata);

  for (const std::string target :
       {"/query", "/query?expr=", "/query?expr=rate(",
        "/query?expr=probemon_load&range=0",
        "/query?expr=probemon_load&range=abc"}) {
    const std::string response = http_get(server.port(), target);
    EXPECT_EQ(status_line(response), "HTTP/1.1 400 Bad Request") << target;
    EXPECT_NE(body_of(response).find("\"error\":"), std::string::npos)
        << body_of(response);
  }
}

TEST(HttpRoutes, AlertsEndpointServesAndFiltersState) {
  AlertEngine engine;
  AlertRule rule;
  rule.name = "agent_absent";
  engine.add_condition_rule(rule);
  engine.set_condition("agent_absent", {{"agent", "a"}}, true, 7.0, 3.0);
  engine.set_condition("agent_absent", {{"agent", "b"}}, false, 0.1, 3.0);

  HttpServer server;
  runtime::register_alert_routes(server, engine);
  server.start();

  const std::string all = http_get(server.port(), "/alerts");
  EXPECT_EQ(status_line(all), "HTTP/1.1 200 OK");
  EXPECT_EQ(header_of(all, "Content-Type"),
            "application/json; charset=utf-8");
  EXPECT_EQ(body_of(all), alerts_to_json(engine));

  const std::string firing =
      http_get(server.port(), "/alerts?state=firing");
  EXPECT_EQ(body_of(firing), alerts_to_json(engine, "firing"));
  EXPECT_NE(body_of(firing).find("\"agent\":\"a\""), std::string::npos);
  EXPECT_EQ(body_of(firing).find("\"agent\":\"b\""), std::string::npos);

  const std::string bad = http_get(server.port(), "/alerts?state=loud");
  EXPECT_EQ(status_line(bad), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(body_of(bad).find("\"error\":"), std::string::npos);
}

}  // namespace
}  // namespace probemon::telemetry
