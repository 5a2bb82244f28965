#include "telemetry/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cctype>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "telemetry/export.hpp"
#include "telemetry/json.hpp"

namespace probemon::telemetry {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    default: return "Status";
  }
}

/// Split "path?a=1&b=2" into request.path / request.query. No
/// percent-decoding: every route this server exists for uses plain
/// token values (`format=chrome`).
void parse_target(const std::string& target, HttpRequest& request) {
  const std::size_t qmark = target.find('?');
  request.path = target.substr(0, qmark);
  if (qmark == std::string::npos) return;
  std::size_t pos = qmark + 1;
  while (pos <= target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const std::string pair = target.substr(pos, amp - pos);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        request.query[pair] = "";
      } else {
        request.query[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    }
    pos = amp + 1;
  }
}

/// Parse the request line out of the buffered head. Returns false on a
/// malformed line.
bool parse_request_line(const std::string& head, HttpRequest& request) {
  const std::size_t eol = head.find("\r\n");
  const std::string line =
      head.substr(0, eol == std::string::npos ? head.size() : eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request.method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  if (line.compare(sp2 + 1, 5, "HTTP/") != 0) return false;
  parse_target(target, request);
  return true;
}

/// Case-insensitive Content-Length lookup in the raw header block.
/// Returns false when absent; throws nothing (malformed digits -> false).
bool find_content_length(const std::string& head, std::size_t& out) {
  std::size_t pos = head.find("\r\n");
  const std::size_t end = head.find("\r\n\r\n");
  while (pos != std::string::npos && pos < end) {
    pos += 2;
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = end;
    const std::string line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name == "content-length") {
        std::size_t value = 0;
        bool any = false;
        for (std::size_t i = colon + 1; i < line.size(); ++i) {
          const char c = line[i];
          if (c == ' ' || c == '\t') {
            if (any) break;
            continue;
          }
          if (c < '0' || c > '9') return false;
          value = value * 10 + static_cast<std::size_t>(c - '0');
          any = true;
        }
        if (!any) return false;
        out = value;
        return true;
      }
    }
    pos = eol;
  }
  return false;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; nothing useful to do
    }
    off += static_cast<std::size_t>(n);
  }
}

void write_response(int fd, const HttpResponse& response,
                    const std::string& allow = "", bool head_only = false) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                     status_text(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  // HEAD advertises the length of the body a GET would have returned,
  // but sends no body (RFC 9110 §9.3.2) — curl -I Content-Length checks
  // see the real size.
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (!allow.empty()) head += "Allow: " + allow + "\r\n";
  head += "Connection: close\r\n\r\n";
  write_all(fd, head_only ? head : head + response.body);
}

}  // namespace

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain; charset=utf-8";
  response.body = message;
  if (response.body.empty() || response.body.back() != '\n') {
    response.body += '\n';
  }
  return response;
}

HttpResponse json_error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json; charset=utf-8";
  JsonWriter w;
  w.begin_object();
  w.key("error");
  w.value(message);
  w.key("status");
  w.value(status);
  w.end_object();
  response.body = w.str() + '\n';
  return response;
}

static bool parse_cursor_flag(const std::map<std::string, std::string>& query,
                              bool& full, std::string& error) {
  const auto it = query.find("full");
  if (it == query.end()) {
    full = false;
    return true;
  }
  if (it->second == "0" || it->second == "1") {
    full = it->second == "1";
    return true;
  }
  error = "full must be 0 or 1 (got '" + it->second + "')";
  return false;
}

HttpServer::HttpServer() : HttpServer(Config{}) {}

HttpServer::HttpServer(Config config) : config_(config) {
  if (config_.workers < 1) {
    throw std::invalid_argument("HttpServer: need at least one worker");
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, HttpHandler handler) {
  if (path.empty() || path[0] != '/') {
    throw std::invalid_argument("HttpServer: route must start with '/'");
  }
  if (!handler) throw std::invalid_argument("HttpServer: empty handler");
  util::MutexLock lock(mutex_);
  handlers_[path].get = std::move(handler);
}

void HttpServer::handle_post(const std::string& path, HttpHandler handler) {
  if (path.empty() || path[0] != '/') {
    throw std::invalid_argument("HttpServer: route must start with '/'");
  }
  if (!handler) throw std::invalid_argument("HttpServer: empty handler");
  util::MutexLock lock(mutex_);
  handlers_[path].post = std::move(handler);
}

void HttpServer::start() {
  util::MutexLock lock(mutex_);
  if (running_) return;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "HttpServer: socket");
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  // A collector restarting on a fixed port can race its predecessor's
  // listen fd closing; SO_REUSEADDR handles TIME_WAIT but not a bind
  // attempted while the old socket is literally still open, so retry
  // EADDRINUSE briefly instead of failing the whole restart.
  const auto bind_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.bind_retry_window_s));
  while (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    if (err != EADDRINUSE ||
        std::chrono::steady_clock::now() >= bind_deadline) {
      close(fd);
      throw std::system_error(err, std::generic_category(),
                              "HttpServer: bind");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (listen(fd, config_.listen_backlog) != 0) {
    const int err = errno;
    close(fd);
    throw std::system_error(err, std::generic_category(),
                            "HttpServer: listen");
  }
  socklen_t len = sizeof addr;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    close(fd);
    throw std::system_error(err, std::generic_category(),
                            "HttpServer: getsockname");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  running_ = true;
  stopping_ = false;
  started_at_ = std::chrono::steady_clock::now();
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void HttpServer::stop() {
  std::thread acceptor;
  std::vector<std::thread> workers;
  {
    util::MutexLock lock(mutex_);
    if (!running_) return;
    stopping_ = true;
    // Closing the listen socket kicks accept_loop out of poll/accept.
    close(listen_fd_);
    listen_fd_ = -1;
    acceptor = std::move(acceptor_);
    workers = std::move(workers_);
    workers_.clear();
  }
  cv_.notify_all();
  if (acceptor.joinable()) acceptor.join();
  for (auto& w : workers) w.join();
  util::MutexLock lock(mutex_);
  for (int fd : pending_) close(fd);
  pending_.clear();
  running_ = false;
  stopping_ = false;
  port_ = 0;
}

bool HttpServer::running() const {
  util::MutexLock lock(mutex_);
  return running_ && !stopping_;
}

std::uint16_t HttpServer::port() const {
  util::MutexLock lock(mutex_);
  return port_;
}

std::uint64_t HttpServer::requests_served() const {
  util::MutexLock lock(mutex_);
  return requests_;
}

double HttpServer::uptime_seconds() const {
  util::MutexLock lock(mutex_);
  if (!running_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

std::vector<std::string> HttpServer::routes() const {
  util::MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(handlers_.size());
  for (const auto& [path, route] : handlers_) out.push_back(path);
  return out;
}

std::uint64_t HttpServer::connections_accepted() const {
  util::MutexLock lock(mutex_);
  return accepted_;
}

std::uint64_t HttpServer::connections_shed() const {
  util::MutexLock lock(mutex_);
  return shed_;
}

std::size_t HttpServer::accept_backlog() const {
  util::MutexLock lock(mutex_);
  return pending_.size();
}

void HttpServer::instrument(Registry& registry) {
  registry.gauge_callback(
      "probemon_http_accept_backlog",
      [this] { return static_cast<double>(accept_backlog()); },
      "Accepted connections queued for a worker thread");
  registry.counter_callback(
      "probemon_http_connections_accepted_total",
      [this] { return static_cast<double>(connections_accepted()); },
      "Connections accepted into the worker queue");
  registry.counter_callback(
      "probemon_http_connections_shed_total",
      [this] { return static_cast<double>(connections_shed()); },
      "Connections closed unserved because the queue was full");
}

void HttpServer::accept_loop() {
  for (;;) {
    int fd;
    {
      util::MutexLock lock(mutex_);
      if (stopping_) return;
      fd = listen_fd_;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int conn = accept(fd, nullptr, nullptr);
    if (conn < 0) continue;  // stop() closed the socket, or a stray error
    // Bound how long a silent client can pin a worker.
    timeval timeout{2, 0};
    setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    bool enqueued = false;
    {
      util::MutexLock lock(mutex_);
      if (!stopping_) {
        if (pending_.size() < config_.max_pending) {
          pending_.push_back(conn);
          ++accepted_;
          enqueued = true;
        } else {
          ++shed_;  // queue full: overload, not shutdown
        }
      }
    }
    if (enqueued) {
      cv_.notify_one();
    } else {
      close(conn);  // overload (or shutdown): shed instead of queueing
    }
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_ && pending_.empty()) cv_.wait(mutex_);
      if (pending_.empty()) return;  // stopping
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
    close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  // Read until the end of the header block (any body bytes that arrive
  // in the same segments are kept for the POST path below).
  std::string data;
  char buf[1024];
  std::size_t header_end;
  while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
    if (data.size() > config_.max_request_bytes) {
      write_response(fd, error_response(431, "request head too large"));
      return;
    }
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client vanished or stalled past SO_RCVTIMEO
    }
    data.append(buf, static_cast<std::size_t>(n));
  }

  HttpRequest request;
  if (!parse_request_line(data, request)) {
    write_response(fd, error_response(400, "malformed request line"));
    return;
  }

  Route route;
  bool routed = false;
  {
    util::MutexLock lock(mutex_);
    ++requests_;
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) {
      route = it->second;
      routed = true;
    }
  }
  // HEAD runs the GET handler (headers need the real Content-Length)
  // and suppresses the body on the wire.
  const bool head = request.method == "HEAD";
  if (request.method != "GET" && request.method != "POST" && !head) {
    write_response(fd, error_response(405, "method not supported"),
                   "GET, HEAD, POST");
    return;
  }
  if (!routed) {
    write_response(fd, error_response(404, "no route for " + request.path),
                   "", head);
    return;
  }
  const std::string allow = route.get && route.post ? "GET, HEAD, POST"
                            : route.post            ? "POST"
                                                    : "GET, HEAD";
  const HttpHandler& handler =
      request.method == "POST" ? route.post : route.get;
  if (!handler) {
    write_response(fd,
                   error_response(405, request.method + " not supported on " +
                                           request.path),
                   allow, head);
    return;
  }

  if (request.method == "POST") {
    std::size_t content_length = 0;
    if (!find_content_length(data, content_length)) {
      write_response(fd, error_response(411, "POST requires Content-Length"));
      return;
    }
    if (content_length > config_.max_body_bytes) {
      write_response(fd,
                     error_response(413, "body exceeds " +
                                             std::to_string(
                                                 config_.max_body_bytes) +
                                             " bytes"));
      return;
    }
    const std::size_t body_start = header_end + 4;
    while (data.size() - body_start < content_length) {
      const ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // body never arrived in full
      }
      data.append(buf, static_cast<std::size_t>(n));
    }
    request.body = data.substr(body_start, content_length);
  }

  try {
    write_response(fd, handler(request), "", head);
  } catch (const std::exception& e) {
    write_response(
        fd, error_response(500, std::string("handler error: ") + e.what()), "",
        head);
  }
}

void register_metrics_routes(HttpServer& server, const Registry& store) {
  // One DeltaExporter per route pair; the routes share the store but
  // keep independent per-format cursors. shared_ptr so both closures
  // (and replacements registered later) own the state.
  auto exporter = std::make_shared<DeltaExporter>(store);
  server.handle("/metrics", [exporter](const HttpRequest& request) {
    bool full = false;
    std::string error;
    if (!parse_cursor_flag(request.query, full, error)) {
      return json_error_response(400, error);
    }
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        exporter->prometheus(full)};
  });
  server.handle("/metrics.json", [exporter](const HttpRequest& request) {
    bool full = false;
    std::string error;
    if (!parse_cursor_flag(request.query, full, error)) {
      return json_error_response(400, error);
    }
    return HttpResponse{200, "application/json; charset=utf-8",
                        exporter->json(full)};
  });
}

void register_trace_routes(HttpServer& server,
                           const ProbeCycleTracer& tracer) {
  server.handle("/trace", [&tracer](const HttpRequest& request) {
    auto it = request.query.find("format");
    const std::string format = it == request.query.end() ? "json" : it->second;
    if (format == "chrome") {
      return HttpResponse{200, "application/json; charset=utf-8",
                          tracer.to_chrome_trace()};
    }
    if (format != "json") {
      return error_response(400, "unknown format '" + format +
                                     "' (expected json or chrome)");
    }
    const auto since_it = request.query.find("since");
    if (since_it == request.query.end()) {
      return HttpResponse{200, "application/json; charset=utf-8",
                          tracer.to_json()};
    }
    std::uint64_t cursor = 0;
    if (since_it->second.empty()) {
      return json_error_response(400, "since must be a non-negative integer");
    }
    for (char c : since_it->second) {
      if (c < '0' || c > '9') {
        return json_error_response(400,
                                   "since must be a non-negative integer "
                                   "(got '" +
                                       since_it->second + "')");
      }
      cursor = cursor * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return HttpResponse{200, "application/json; charset=utf-8",
                        tracer.to_json_since(cursor)};
  });
}

}  // namespace probemon::telemetry
