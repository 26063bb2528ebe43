// serve::ServerConfig — one aggregated configuration for a serving replica.
//
// Before this existed, every surface that stood up a server re-implemented
// its own slice of the knob sprawl: wm_tool read WM_SERVE_PORT itself,
// loadgen hard-coded engine queue/batch numbers, tests passed ad-hoc
// ServerOptions, and WM_HTTP_PORT was consulted in yet another place. A
// ServerConfig resolves every knob in one spot with one precedence rule:
//
//   explicit field  >  environment variable  >  built-in default
//
// Fields are std::optional: an unset field falls through to its env var
// (parsed with the hardened common/env.hpp helper — malformed values warn
// and fall through to the default, never half-apply), and then to the
// default. resolve() produces the final plain-value view; engine_options()
// / server_options() / exporter_options() adapt it to the per-subsystem
// option structs so one config stands up a whole replica:
//
//   serve::ServerConfig cfg{.port = 9000, .workers = 4};
//   serve::InferenceEngine engine(clf, cfg.engine_options(&reg, &monitor));
//   net::Server server(engine, cfg.server_options());
//
// Environment variables (all hardened, all optional):
//   WM_SERVE_PORT            TCP port                  [1, 65535]
//   WM_SERVE_BACKLOG         kernel accept backlog     [1, 4096]
//   WM_SERVE_WORKERS         connection worker threads [1, 256]
//   WM_SERVE_MAX_BATCH       engine micro-batch size   [1, 4096]
//   WM_SERVE_QUEUE_CAPACITY  engine queue bound        [1, 10^6]
//   WM_HTTP_PORT             /metrics + /healthz port  [1, 65535]
#pragma once

#include <optional>
#include <string>

#include "net/server.hpp"
#include "obs/http_exporter.hpp"
#include "serve/inference_engine.hpp"

namespace wm::serve {

struct ServerConfig {
  /// TCP port for the wire protocol; 0 = ephemeral. Env: WM_SERVE_PORT.
  std::optional<int> port;
  /// Kernel accept backlog. Env: WM_SERVE_BACKLOG, default 64.
  std::optional<int> backlog{};
  /// Connection worker threads. Env: WM_SERVE_WORKERS, default 2.
  std::optional<int> workers;
  /// HTTP exporter (/metrics, /healthz) port; unset everywhere = no
  /// exporter, 0 = ephemeral. Env: WM_HTTP_PORT.
  std::optional<int> http_port;
  /// Engine micro-batch size. Env: WM_SERVE_MAX_BATCH, default 32.
  std::optional<int> max_batch{};
  /// Engine queue bound. Env: WM_SERVE_QUEUE_CAPACITY, default 256.
  std::optional<std::size_t> queue_capacity{};
  /// Per-socket IO timeout (no env knob), default 5000.
  std::optional<int> io_timeout_ms{};
  /// Listen address (no env knob), default loopback.
  std::string bind_address = "127.0.0.1";

  /// The fully resolved view: every knob a concrete value.
  struct Resolved {
    int port = 0;
    int backlog = 64;
    int workers = 2;
    std::optional<int> http_port;  // still optional: unset = no exporter
    int max_batch = 32;
    std::size_t queue_capacity = 256;
    int io_timeout_ms = 5000;
    std::string bind_address = "127.0.0.1";
  };

  /// Applies explicit-field > env > default to every knob.
  Resolved resolve() const;

  /// EngineOptions from the resolved config (registry/monitor pass through).
  EngineOptions engine_options(obs::Registry* registry = nullptr,
                               SelectiveMonitor* monitor = nullptr) const;

  /// net::ServerOptions from the resolved config.
  net::ServerOptions server_options(obs::Registry* registry = nullptr) const;

  /// HttpExporterOptions when an http_port is configured anywhere
  /// (field or WM_HTTP_PORT); nullopt = don't start an exporter.
  std::optional<obs::HttpExporterOptions> exporter_options(
      obs::Registry* registry = nullptr) const;
};

}  // namespace wm::serve
