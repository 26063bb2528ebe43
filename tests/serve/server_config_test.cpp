// ServerConfig: its defaults, and the adapters into the per-subsystem
// option structs.
#include "serve/server_config.hpp"

#include <gtest/gtest.h>

#include "serve/monitor.hpp"

namespace wm::serve {
namespace {

TEST(ServerConfigTest, DefaultsWhenNothingIsSet) {
  obs::Registry registry;
  const ServerConfig cfg;

  const EngineOptions eo = cfg.engine_options(&registry);
  EXPECT_EQ(eo.max_batch, 32);
  EXPECT_EQ(eo.queue_capacity, 256u);

  const net::ServerOptions so = cfg.server_options(&registry);
  EXPECT_EQ(so.port, 0);
  EXPECT_EQ(so.bind_address, "127.0.0.1");
  EXPECT_EQ(so.backlog, 64);
  EXPECT_EQ(so.workers, 2);
  EXPECT_EQ(so.io_timeout_ms, 5000);

  // No http_port = no exporter.
  EXPECT_FALSE(cfg.exporter_options(&registry).has_value());
  ServerConfig with_exporter;
  with_exporter.http_port = 0;
  const auto xo = with_exporter.exporter_options(&registry);
  ASSERT_TRUE(xo.has_value());
  EXPECT_EQ(xo->port, 0);
  EXPECT_EQ(xo->bind_address, "127.0.0.1");
  EXPECT_EQ(xo->io_timeout_ms, 5000);
}

TEST(ServerConfigTest, AdaptersCarryTheResolvedValues) {
  const ServerConfig cfg{.port = 9300,
                         .workers = 4,
                         .http_port = 9301,
                         .max_batch = 16,
                         .queue_capacity = 1024,
                         .bind_address = "0.0.0.0"};
  obs::Registry registry;
  SelectiveMonitor monitor;

  const EngineOptions eo = cfg.engine_options(&registry, &monitor);
  EXPECT_EQ(eo.max_batch, 16);
  EXPECT_EQ(eo.queue_capacity, 1024u);
  EXPECT_EQ(eo.registry, &registry);
  EXPECT_EQ(eo.monitor, &monitor);

  const net::ServerOptions so = cfg.server_options(&registry);
  EXPECT_EQ(so.port, 9300);
  EXPECT_EQ(so.bind_address, "0.0.0.0");
  EXPECT_EQ(so.workers, 4);
  EXPECT_EQ(so.registry, &registry);

  const auto xo = cfg.exporter_options(&registry);
  ASSERT_TRUE(xo.has_value());
  EXPECT_EQ(xo->port, 9301);
  EXPECT_EQ(xo->bind_address, "0.0.0.0");
  EXPECT_EQ(xo->registry, &registry);
}

}  // namespace
}  // namespace wm::serve
