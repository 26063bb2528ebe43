// wm::obs HTTP exporter: every endpoint over real loopback sockets, error
// paths (404/405), health flips, concurrent scrapers, and clean shutdown.
#include "obs/http_exporter.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/json_check.hpp"
#include "obs/metrics.hpp"

namespace wm::obs {
namespace {

int status_of(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..." -> 200.
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos) return -1;
  return std::stoi(response.substr(sp + 1));
}

std::string body_of(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

/// Sends a raw request (any method) and returns the full response.
std::string raw_request(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExporterTest, ServesMetricsInPrometheusFormat) {
  Registry registry;
  registry.counter("wm_test_requests_total", "a test counter").inc(7);
  registry.gauge("wm_test_depth", "a test gauge").set(3.5);
  HttpExporter exporter({.registry = &registry});
  ASSERT_GT(exporter.port(), 0);

  const std::string response = http_get_local(exporter.port(), "/metrics");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("wm_test_requests_total 7"), std::string::npos);
  EXPECT_NE(body.find("wm_test_depth 3.5"), std::string::npos);
  EXPECT_NE(body.find("# TYPE wm_test_requests_total counter"),
            std::string::npos);
}

TEST(HttpExporterTest, ServesMetricsAsValidJson) {
  Registry registry;
  registry.counter("wm_test_total").inc(42);
  HttpExporter exporter({.registry = &registry});

  const std::string response =
      http_get_local(exporter.port(), "/metrics.json");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  const testjson::Value doc = testjson::parse(body_of(response));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("counters").at("wm_test_total").num(), 42.0);
}

TEST(HttpExporterTest, HealthzReflectsTheCallback) {
  Registry registry;
  std::atomic<bool> healthy{true};
  HttpExporter exporter(
      {.registry = &registry, .healthy = [&] { return healthy.load(); }});

  std::string response = http_get_local(exporter.port(), "/healthz");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(body_of(response).find("\"status\":\"ok\""), std::string::npos);

  healthy = false;
  response = http_get_local(exporter.port(), "/healthz");
  EXPECT_EQ(status_of(response), 503);
  EXPECT_NE(body_of(response).find("\"status\":\"fail\""), std::string::npos);
}

TEST(HttpExporterTest, HealthzDefaultsToOkWithoutCallback) {
  Registry registry;
  HttpExporter exporter({.registry = &registry});
  EXPECT_EQ(status_of(http_get_local(exporter.port(), "/healthz")), 200);
}

TEST(HttpExporterTest, UnknownPathIs404AndQueryStringsAreIgnored) {
  Registry registry;
  HttpExporter exporter({.registry = &registry});
  EXPECT_EQ(status_of(http_get_local(exporter.port(), "/nope")), 404);
  EXPECT_EQ(status_of(http_get_local(exporter.port(), "/metrics?x=1")), 200);
}

TEST(HttpExporterTest, NonGetMethodIs405AndGarbageIs400) {
  Registry registry;
  HttpExporter exporter({.registry = &registry});
  EXPECT_EQ(status_of(raw_request(
                exporter.port(),
                "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_EQ(status_of(raw_request(exporter.port(), "garbage\r\n\r\n")), 400);
}

TEST(HttpExporterTest, CountsRequestsInItsOwnRegistry) {
  Registry registry;
  HttpExporter exporter({.registry = &registry});
  EXPECT_EQ(exporter.requests_served(), 0u);
  (void)http_get_local(exporter.port(), "/metrics");
  (void)http_get_local(exporter.port(), "/nope");
  EXPECT_EQ(exporter.requests_served(), 2u);
  // The counter is also visible through the endpoint it serves.
  const std::string body =
      body_of(http_get_local(exporter.port(), "/metrics"));
  EXPECT_NE(body.find("wm_http_requests_total"), std::string::npos);
}

TEST(HttpExporterTest, ConcurrentScrapersAllGetCompleteResponses) {
  Registry registry;
  registry.counter("wm_test_total").inc(1);
  HttpExporter exporter({.registry = &registry});

  constexpr int kThreads = 4;
  constexpr int kRequests = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const std::string path = (t + i) % 2 == 0 ? "/metrics"
                                                  : "/metrics.json";
        const std::string response = http_get_local(exporter.port(), path);
        if (status_of(response) == 200 &&
            body_of(response).find("wm_test_total") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& s : scrapers) s.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_EQ(exporter.requests_served(),
            static_cast<std::uint64_t>(kThreads * kRequests));
}

TEST(HttpExporterTest, StopIsPromptIdempotentAndFreesThePort) {
  Registry registry;
  int port = 0;
  {
    HttpExporter exporter({.registry = &registry});
    port = exporter.port();
    EXPECT_TRUE(exporter.running());
    exporter.stop();
    EXPECT_FALSE(exporter.running());
    exporter.stop();  // idempotent
    EXPECT_THROW((void)http_get_local(port, "/metrics"), IoError);
  }  // destructor after explicit stop() must also be safe

  // The port is reusable immediately (SO_REUSEADDR + properly closed fd).
  HttpExporter second({.port = port, .registry = &registry});
  EXPECT_EQ(second.port(), port);
  EXPECT_EQ(status_of(http_get_local(port, "/healthz")), 200);
}

TEST(HttpExporterTest, BindingAnInUsePortThrowsIoError) {
  Registry registry;
  HttpExporter first({.registry = &registry});
  EXPECT_THROW(HttpExporter({.port = first.port(), .registry = &registry}),
               IoError);
}

}  // namespace
}  // namespace wm::obs
