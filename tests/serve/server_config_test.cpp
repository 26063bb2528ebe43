// ServerConfig: the explicit-field > env var > default precedence rule,
// hardened env parsing, and the adapters into the per-subsystem option
// structs.
#include "serve/server_config.hpp"

#include <cstdlib>

#include <gtest/gtest.h>

namespace wm::serve {
namespace {

/// Clears every WM_SERVE_* / WM_HTTP_* knob so tests start from a clean
/// environment and restores nothing (each test sets what it needs).
void clear_env() {
  for (const char* name :
       {"WM_SERVE_PORT", "WM_SERVE_BACKLOG", "WM_SERVE_WORKERS",
        "WM_SERVE_MAX_BATCH", "WM_SERVE_MAX_DELAY_US",
        "WM_SERVE_QUEUE_CAPACITY", "WM_HTTP_PORT"}) {
    ::unsetenv(name);
  }
}

TEST(ServerConfigTest, DefaultsWhenNothingIsSet) {
  clear_env();
  const auto r = ServerConfig{}.resolve();
  EXPECT_EQ(r.port, 0);
  EXPECT_EQ(r.backlog, 64);
  EXPECT_EQ(r.workers, 2);
  EXPECT_FALSE(r.http_port.has_value());
  EXPECT_EQ(r.max_batch, 32);
  EXPECT_EQ(r.max_delay_us, 2000);
  EXPECT_EQ(r.queue_capacity, 256u);
  EXPECT_EQ(r.io_timeout_ms, 5000);
  EXPECT_EQ(r.bind_address, "127.0.0.1");
}

TEST(ServerConfigTest, EnvBeatsDefault) {
  clear_env();
  ::setenv("WM_SERVE_PORT", "9100", 1);
  ::setenv("WM_SERVE_WORKERS", "7", 1);
  ::setenv("WM_SERVE_MAX_BATCH", "64", 1);
  ::setenv("WM_HTTP_PORT", "9101", 1);
  const auto r = ServerConfig{}.resolve();
  EXPECT_EQ(r.port, 9100);
  EXPECT_EQ(r.workers, 7);
  EXPECT_EQ(r.max_batch, 64);
  ASSERT_TRUE(r.http_port.has_value());
  EXPECT_EQ(*r.http_port, 9101);
  EXPECT_EQ(r.backlog, 64);  // untouched knobs keep their defaults
  clear_env();
}

TEST(ServerConfigTest, ExplicitFieldBeatsEnv) {
  clear_env();
  ::setenv("WM_SERVE_PORT", "9100", 1);
  ::setenv("WM_SERVE_WORKERS", "7", 1);
  ::setenv("WM_HTTP_PORT", "9101", 1);
  const ServerConfig cfg{.port = 9200, .workers = 3, .http_port = 9201};
  const auto r = cfg.resolve();
  EXPECT_EQ(r.port, 9200);
  EXPECT_EQ(r.workers, 3);
  ASSERT_TRUE(r.http_port.has_value());
  EXPECT_EQ(*r.http_port, 9201);
  clear_env();
}

TEST(ServerConfigTest, MalformedEnvFallsThroughToDefault) {
  clear_env();
  ::setenv("WM_SERVE_PORT", "70000", 1);  // out of [1, 65535]
  ::setenv("WM_SERVE_BACKLOG", "not-a-number", 1);
  ::setenv("WM_SERVE_WORKERS", "100000", 1);  // out of [1, 256]
  ::setenv("WM_SERVE_MAX_DELAY_US", "-5", 1);
  ::setenv("WM_HTTP_PORT", "not-a-port", 1);
  const auto r = ServerConfig{}.resolve();
  EXPECT_EQ(r.port, 0);
  EXPECT_EQ(r.backlog, 64);
  EXPECT_EQ(r.workers, 2);
  EXPECT_EQ(r.max_delay_us, 2000);
  EXPECT_FALSE(r.http_port.has_value());
  clear_env();
}

TEST(ServerConfigTest, AdaptersCarryTheResolvedValues) {
  clear_env();
  const ServerConfig cfg{.port = 9300,
                         .backlog = 128,
                         .workers = 4,
                         .http_port = 9301,
                         .max_batch = 16,
                         .max_delay_us = 500,
                         .queue_capacity = 1024,
                         .io_timeout_ms = 1234,
                         .bind_address = "127.0.0.1"};
  obs::Registry registry;

  const EngineOptions eo = cfg.engine_options(&registry);
  EXPECT_EQ(eo.max_batch, 16);
  EXPECT_EQ(eo.max_delay_us, 500);
  EXPECT_EQ(eo.queue_capacity, 1024u);
  EXPECT_EQ(eo.registry, &registry);

  const net::ServerOptions so = cfg.server_options(&registry);
  EXPECT_EQ(so.port, 9300);
  EXPECT_EQ(so.backlog, 128);
  EXPECT_EQ(so.workers, 4);
  EXPECT_EQ(so.io_timeout_ms, 1234);
  EXPECT_EQ(so.registry, &registry);

  const auto xo = cfg.exporter_options(&registry);
  ASSERT_TRUE(xo.has_value());
  EXPECT_EQ(xo->port, 9301);
  EXPECT_EQ(xo->registry, &registry);

  // No http_port anywhere = no exporter.
  EXPECT_FALSE(ServerConfig{}.exporter_options(&registry).has_value());
}

}  // namespace
}  // namespace wm::serve
