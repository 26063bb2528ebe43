// serve::ServerConfig — the settings of one serving replica in one plain
// struct, and the adapters that hand them to the parts a replica is built
// from:
//
//   serve::ServerConfig cfg{.port = 9000, .workers = 4};
//   serve::InferenceEngine engine(clf, cfg.engine_options(&reg, &monitor));
//   net::Server server(engine, cfg.server_options());
//
// Each field carries its default and is set by code or by its `wm_tool
// serve` flag, which range-checks the value; nothing reads the environment.
// The kernel accept backlog (64) and the per-socket IO timeout (5000 ms,
// for the wire server and the exporter alike) are fixed.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "net/server.hpp"
#include "obs/http_exporter.hpp"
#include "serve/inference_engine.hpp"

namespace wm::serve {

struct ServerConfig {
  /// TCP port for the wire protocol; 0 = ephemeral.
  int port = 0;
  /// Connection worker threads.
  int workers = 2;
  /// HTTP exporter (/metrics, /healthz) port; unset = no exporter, 0 =
  /// ephemeral.
  std::optional<int> http_port{};
  /// Engine micro-batch size.
  int max_batch = 32;
  /// Engine queue bound.
  std::size_t queue_capacity = 256;
  /// Listen address of the wire server and the exporter; default loopback.
  std::string bind_address = "127.0.0.1";

  /// EngineOptions for this config (registry/monitor pass through).
  EngineOptions engine_options(obs::Registry* registry = nullptr,
                               SelectiveMonitor* monitor = nullptr) const;

  /// net::ServerOptions for this config.
  net::ServerOptions server_options(obs::Registry* registry = nullptr) const;

  /// HttpExporterOptions when http_port is set; nullopt = don't start an
  /// exporter.
  std::optional<obs::HttpExporterOptions> exporter_options(
      obs::Registry* registry = nullptr) const;
};

}  // namespace wm::serve
