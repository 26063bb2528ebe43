#include "serve/server_config.hpp"

namespace wm::serve {

namespace {

constexpr int kBacklog = 64;
constexpr int kIoTimeoutMs = 5000;

}  // namespace

EngineOptions ServerConfig::engine_options(obs::Registry* registry,
                                           SelectiveMonitor* monitor) const {
  return {.max_batch = max_batch,
          .queue_capacity = queue_capacity,
          .registry = registry,
          .monitor = monitor};
}

net::ServerOptions ServerConfig::server_options(obs::Registry* registry) const {
  return {.port = port,
          .bind_address = bind_address,
          .backlog = kBacklog,
          .workers = workers,
          .io_timeout_ms = kIoTimeoutMs,
          .registry = registry};
}

std::optional<obs::HttpExporterOptions> ServerConfig::exporter_options(
    obs::Registry* registry) const {
  if (!http_port) return std::nullopt;
  return obs::HttpExporterOptions{.port = *http_port,
                                  .bind_address = bind_address,
                                  .registry = registry,
                                  .io_timeout_ms = kIoTimeoutMs};
}

}  // namespace wm::serve
