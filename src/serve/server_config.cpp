#include "serve/server_config.hpp"

#include "common/env.hpp"

namespace wm::serve {

namespace {

/// explicit field > env var (hardened) > default.
template <typename T>
T pick(const std::optional<T>& field, const char* env_name, std::int64_t lo,
       std::int64_t hi, T fallback) {
  if (field) return *field;
  if (const auto v = env_int(env_name, lo, hi)) return static_cast<T>(*v);
  return fallback;
}

}  // namespace

ServerConfig::Resolved ServerConfig::resolve() const {
  Resolved r;
  r.port = pick(port, "WM_SERVE_PORT", 1, 65535, 0);
  r.backlog = pick(backlog, "WM_SERVE_BACKLOG", 1, 4096, 64);
  r.workers = pick(workers, "WM_SERVE_WORKERS", 1, 256, 2);
  r.max_batch = pick(max_batch, "WM_SERVE_MAX_BATCH", 1, 4096, 32);
  r.max_delay_us = pick<std::int64_t>(max_delay_us, "WM_SERVE_MAX_DELAY_US", 0,
                                      10'000'000, 2000);
  r.queue_capacity = pick<std::size_t>(queue_capacity,
                                       "WM_SERVE_QUEUE_CAPACITY", 1,
                                       1'000'000, 256);
  r.io_timeout_ms = io_timeout_ms.value_or(5000);
  r.bind_address = bind_address;
  // http_port stays optional: "no exporter" is a real configuration, so
  // only the field or the env var can turn it on.
  r.http_port = http_port ? http_port : obs::HttpExporter::port_from_env();
  return r;
}

EngineOptions ServerConfig::engine_options(obs::Registry* registry,
                                           SelectiveMonitor* monitor) const {
  const Resolved r = resolve();
  EngineOptions o;
  o.max_batch = r.max_batch;
  o.max_delay_us = r.max_delay_us;
  o.queue_capacity = r.queue_capacity;
  o.registry = registry;
  o.monitor = monitor;
  return o;
}

net::ServerOptions ServerConfig::server_options(obs::Registry* registry) const {
  const Resolved r = resolve();
  net::ServerOptions o;
  o.port = r.port;
  o.bind_address = r.bind_address;
  o.backlog = r.backlog;
  o.workers = r.workers;
  o.io_timeout_ms = r.io_timeout_ms;
  o.registry = registry;
  return o;
}

std::optional<obs::HttpExporterOptions> ServerConfig::exporter_options(
    obs::Registry* registry) const {
  const Resolved r = resolve();
  if (!r.http_port) return std::nullopt;
  obs::HttpExporterOptions o;
  o.port = *r.http_port;
  o.bind_address = r.bind_address;
  o.registry = registry;
  o.io_timeout_ms = r.io_timeout_ms;
  return o;
}

}  // namespace wm::serve
