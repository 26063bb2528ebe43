// wm::obs HTTP exporter — a pull-based monitoring surface for live
// processes.
//
// A minimal, dependency-free blocking HTTP/1.1 server on its own listener
// thread. It exists so a Prometheus scraper (or a human with curl) can read
// the process's instruments while it serves traffic:
//
//   GET /metrics        Prometheus exposition format of the Registry
//   GET /metrics.json   the same registry as one JSON object
//   GET /healthz        {"status":"ok"} (503 + "fail" if the health
//                       callback reports unhealthy)
//
// Anything else is 404; any method but GET is 405. Connections are handled
// one at a time on the listener thread (bounded accept loop — concurrent
// scrapers queue in the kernel backlog), each request is size-capped, and
// every socket carries a receive/send timeout so a stalled client cannot
// wedge the exporter. Shutdown is prompt and clean: stop() (also run by the
// destructor) wakes the poll loop through a pipe, joins the thread, and
// closes every fd.
//
//   obs::HttpExporter exporter({.port = 9090});
//   // ... serve traffic; scrape http://127.0.0.1:9090/metrics ...
//   exporter.stop();
//
// Binding port 0 (the default) picks an ephemeral port; port() reports the
// actual one. The exporter itself shows up in the registry it serves as
// wm_http_requests_total.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_util.hpp"
#include "obs/metrics.hpp"

namespace wm::obs {

/// One extra GET endpoint served by an exporter (consulted before the 404
/// fallback; built-in paths win on collision). The handler runs on the
/// listener thread — keep it quick, exceptions become a 500.
struct HttpRoute {
  std::string path;          // exact match, e.g. "/fleet"
  std::string content_type;  // e.g. "application/json"
  std::function<std::string()> handler;
};

struct HttpExporterOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Listen address. The default only accepts loopback connections; bind
  /// "0.0.0.0" explicitly to expose the endpoints beyond the host.
  std::string bind_address = "127.0.0.1";
  /// Registry served by /metrics and /metrics.json. nullptr = the
  /// process-wide Registry::global().
  Registry* registry = nullptr;
  /// Health probe behind /healthz; default = always healthy.
  std::function<bool()> healthy = nullptr;
  /// Additional GET endpoints (the collector mounts /fleet and /dashboard
  /// this way).
  std::vector<HttpRoute> routes{};
  /// Per-socket receive/send timeout.
  int io_timeout_ms = 2000;
};

class HttpExporter {
 public:
  /// Binds, listens, and starts the listener thread; throws wm::IoError
  /// when the socket cannot be created or bound.
  explicit HttpExporter(const HttpExporterOptions& opts = {});

  /// Stops and joins (see stop()).
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Stops accepting, joins the listener thread, closes all sockets.
  /// Idempotent.
  void stop();

  /// False once stop() has begun.
  bool running() const;

  /// The bound TCP port (resolves the ephemeral port when opts.port == 0).
  int port() const { return port_; }

  /// Requests answered so far (any status).
  std::uint64_t requests_served() const;

  /// The registry this exporter serves.
  Registry& registry() const { return registry_; }

 private:
  void listener_loop();
  void handle_connection(int fd);

  const HttpExporterOptions opts_;
  Registry& registry_;
  Counter& requests_total_;
  int listen_fd_ = -1;
  net::WakePipe wake_pipe_;  // stop() wakes the poll loop
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex join_mutex_;  // serialises stop()'s join
  std::thread listener_;   // started last in the constructor
};

/// Blocking GET against host:port; returns the raw HTTP response (status
/// line, headers, body). The collector's scrape primitive — throws
/// wm::IoError on connect/IO failure or timeout.
std::string http_get(const std::string& host, int port,
                     const std::string& path, int timeout_ms = 2000);

/// Loopback convenience wrapper around http_get().
std::string http_get_local(int port, const std::string& path,
                           int timeout_ms = 2000);

}  // namespace wm::obs
