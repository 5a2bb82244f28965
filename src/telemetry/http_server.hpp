// HttpServer: a dependency-free HTTP/1.1 endpoint for live telemetry.
//
// The exporters (export.hpp) turn a Registry into text; this server
// puts that text on a socket so a running system can be inspected with
// curl, a Prometheus scraper, or a browser while it runs. Scope is
// deliberately tiny — exact-path routes, GET plus bounded-body POST
// (for the metrics-push ingest route), Connection: close — because the
// consumer is an operator, a scraper or a pushing agent, not a web app.
//
// Threading: start() spawns one blocking accept loop plus a small fixed
// pool of workers draining a bounded connection queue (connections
// beyond the bound are closed immediately — overload sheds instead of
// queueing without limit). Handlers run on worker threads and must be
// thread-safe; the telemetry snapshot paths they typically call
// (Registry::snapshot(), ProbeCycleTracer::snapshot()) already are.
// stop() (or destruction) closes the listen socket, drains the queue
// and joins every thread; it is idempotent and safe to call while
// requests are in flight.
//
//   HttpServer server({.port = 0});        // 0 = ephemeral
//   register_metrics_routes(server, registry);
//   register_trace_routes(server, tracer);
//   server.start();
//   std::cout << "serving on :" << server.port() << '\n';
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

struct HttpRequest {
  std::string method;  ///< upper-case as received, e.g. "GET"
  std::string path;    ///< request target without the query string
  std::map<std::string, std::string> query;  ///< parsed ?k=v&k2=v2
  std::string body;    ///< POST payload ("" for GET)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Uniform error body: every error path goes through here so status
/// pages always carry an explicit charset and a Content-Length that
/// matches the body actually sent.
HttpResponse error_response(int status, const std::string& message);

/// Same, as `{"error": message, "status": N}` for JSON routes whose
/// clients parse the body (e.g. malformed ?since= / ?full= cursors).
HttpResponse json_error_response(int status, const std::string& message);

class HttpServer {
 public:
  struct Config {
    std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
    int workers = 2;         ///< connection-handling threads
    /// Accepted connections waiting for a worker beyond this are closed.
    std::size_t max_pending = 64;
    /// Request head (request line + headers) size cap; larger -> 431.
    std::size_t max_request_bytes = 8192;
    /// POST body size cap; larger -> 413. Metrics-push bodies from a
    /// chatty agent fit in well under a megabyte.
    std::size_t max_body_bytes = 4u << 20;
    /// listen(2) backlog. Raise it for collectors scraped by many
    /// agents at once; the kernel queue absorbs connect bursts that
    /// land between accept() calls.
    int listen_backlog = 16;
    /// On EADDRINUSE, retry the bind for this long before giving up —
    /// a restarting collector often races its predecessor's listen
    /// socket closing (SO_REUSEADDR alone does not cover a bind that
    /// lands while the old fd is still open).
    double bind_retry_window_s = 1.0;
  };

  HttpServer();  // all-default Config
  explicit HttpServer(Config config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register (or replace) the GET handler for an exact path. Safe to
  /// call before start() or while serving.
  void handle(const std::string& path, HttpHandler handler)
      PROBEMON_EXCLUDES(mutex_);
  /// Register (or replace) the POST handler for an exact path. A path
  /// may carry both a GET and a POST handler; a method without a
  /// handler answers 405 with an Allow header listing what exists.
  void handle_post(const std::string& path, HttpHandler handler)
      PROBEMON_EXCLUDES(mutex_);

  /// Bind 127.0.0.1, start the accept loop and workers. Throws
  /// std::system_error if the port cannot be bound. Idempotent.
  void start() PROBEMON_EXCLUDES(mutex_);
  /// Shut down and join all threads. Idempotent; called by ~HttpServer.
  void stop() PROBEMON_EXCLUDES(mutex_);

  bool running() const PROBEMON_EXCLUDES(mutex_);
  /// Bound port (valid after start(); 0 before).
  std::uint16_t port() const PROBEMON_EXCLUDES(mutex_);
  /// Requests answered (any status) since construction.
  std::uint64_t requests_served() const PROBEMON_EXCLUDES(mutex_);
  /// Seconds since start() (0 when not running).
  double uptime_seconds() const PROBEMON_EXCLUDES(mutex_);

  /// Registered paths, sorted — lets an index route list its siblings.
  std::vector<std::string> routes() const PROBEMON_EXCLUDES(mutex_);

  /// Connections accepted into the worker queue since construction.
  std::uint64_t connections_accepted() const PROBEMON_EXCLUDES(mutex_);
  /// Connections closed unserved because the queue was full.
  std::uint64_t connections_shed() const PROBEMON_EXCLUDES(mutex_);
  /// Accepted connections currently waiting for a worker.
  std::size_t accept_backlog() const PROBEMON_EXCLUDES(mutex_);

  /// Export the server's own health on `registry`:
  /// probemon_http_accept_backlog (gauge: connections queued for a
  /// worker — a persistently non-zero value means the worker pool is
  /// undersized for the scrape load),
  /// probemon_http_connections_accepted_total and
  /// probemon_http_connections_shed_total. Callback-backed; the
  /// registry must outlive the server.
  void instrument(Registry& registry) PROBEMON_EXCLUDES(mutex_);

 private:
  struct Route {
    HttpHandler get;
    HttpHandler post;
  };

  void accept_loop() PROBEMON_EXCLUDES(mutex_);
  void worker_loop() PROBEMON_EXCLUDES(mutex_);
  void serve_connection(int fd) PROBEMON_EXCLUDES(mutex_);

  const Config config_;
  mutable util::Mutex mutex_{"telemetry.HttpServer"};
  util::CondVar cv_;
  std::map<std::string, Route> handlers_ PROBEMON_GUARDED_BY(mutex_);
  /// accepted fds awaiting a worker
  std::deque<int> pending_ PROBEMON_GUARDED_BY(mutex_);
  bool running_ PROBEMON_GUARDED_BY(mutex_) = false;
  bool stopping_ PROBEMON_GUARDED_BY(mutex_) = false;
  int listen_fd_ PROBEMON_GUARDED_BY(mutex_) = -1;
  std::uint16_t port_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t requests_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t accepted_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::uint64_t shed_ PROBEMON_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point started_at_
      PROBEMON_GUARDED_BY(mutex_){};
  std::thread acceptor_ PROBEMON_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_ PROBEMON_GUARDED_BY(mutex_);
};

/// `/metrics` (Prometheus text exposition 0.0.4) and `/metrics.json`
/// (the to_json() snapshot) over `store`, which must outlive the
/// server.
///
/// Both routes are *delta scrapes* by default: each keeps its own
/// DeltaExporter cursor, so the first request returns the full
/// snapshot and later requests return only series whose value changed
/// since that route's previous scrape — O(changed) bytes at
/// fleet-scale cardinality. `?full=1` forces a complete snapshot (and
/// still advances the cursor). Note the cursor is per-route, not
/// per-client: point exactly one scraper at each route, or use ?full=1.
void register_metrics_routes(HttpServer& server, const Registry& store);

/// `/trace` over `tracer` (must outlive the server): the probe-cycle
/// ring as a JSON array by default, or Chrome trace-event format for
/// `?format=chrome` (load the saved body in Perfetto or
/// chrome://tracing). Unknown formats -> 400. `?since=N` (json format
/// only) returns {"next": M, "traces": [...]} with only traces
/// recorded after cursor N — pass the previous response's "next" to
/// tail the ring incrementally.
void register_trace_routes(HttpServer& server, const ProbeCycleTracer& tracer);

}  // namespace probemon::telemetry
