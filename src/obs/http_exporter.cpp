#include "obs/http_exporter.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "net/socket_util.hpp"
#include "obs/build_info.hpp"

namespace wm::obs {

namespace {

// A request line plus headers comfortably fits; anything larger is abuse.
constexpr std::size_t kMaxRequestBytes = 8192;

using net::set_io_timeouts;
using net::write_all;

std::string make_response(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Reads until the header terminator (headers are all we route on),
/// returning false on timeout, error, or an oversized request.
bool read_request_head(int fd, std::string* out) {
  char buf[1024];
  while (out->find("\r\n\r\n") == std::string::npos) {
    if (out->size() > kMaxRequestBytes) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    out->append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

HttpExporter::HttpExporter(const HttpExporterOptions& opts)
    : opts_(opts),
      registry_(opts.registry != nullptr ? *opts.registry
                                         : Registry::global()),
      requests_total_(registry_.counter("wm_http_requests_total",
                                        "HTTP requests answered by the "
                                        "metrics exporter")) {
  WM_CHECK(opts_.port >= 0 && opts_.port <= 65535, "bad HTTP port ",
           opts_.port);

  // Every scrape surface identifies the binary behind it.
  register_build_info(registry_);

  // One socket layer for the whole repo: the listener, timeouts, and wake
  // pipe all come from net/socket_util (shared with net::Server).
  listen_fd_ = net::listen_tcp(opts_.bind_address, opts_.port, 16, &port_);
  listener_ = std::thread([this] { listener_loop(); });
}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::stop() {
  if (!stopping_.exchange(true)) wake_pipe_.wake();
  const std::lock_guard<std::mutex> lock(join_mutex_);
  if (listener_.joinable()) listener_.join();
  // Close fds exactly once, after the listener can no longer touch them.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  wake_pipe_.close();
}

bool HttpExporter::running() const { return !stopping_.load(); }

std::uint64_t HttpExporter::requests_served() const {
  return requests_total_.value();
}

void HttpExporter::listener_loop() {
  while (!stopping_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_.read_fd(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    set_io_timeouts(conn, opts_.io_timeout_ms);
    handle_connection(conn);
    ::close(conn);
  }
}

void HttpExporter::handle_connection(int fd) {
  std::string head;
  if (!read_request_head(fd, &head)) return;  // bad/slow client: just drop

  requests_total_.inc();

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    (void)write_all(fd, make_response(400, "Bad Request", "text/plain",
                                      "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);  // ignore query string

  if (method != "GET") {
    (void)write_all(fd, make_response(405, "Method Not Allowed", "text/plain",
                                      "only GET is supported\n"));
    return;
  }

  std::string response;
  try {
    if (path == "/metrics") {
      response = make_response(200, "OK",
                               "text/plain; version=0.0.4; charset=utf-8",
                               registry_.prometheus_text());
    } else if (path == "/metrics.json") {
      response =
          make_response(200, "OK", "application/json", registry_.json_text());
    } else if (path == "/healthz") {
      const bool ok = !opts_.healthy || opts_.healthy();
      response = ok ? make_response(200, "OK", "application/json",
                                    "{\"status\":\"ok\"}\n")
                    : make_response(503, "Service Unavailable",
                                    "application/json",
                                    "{\"status\":\"fail\"}\n");
    } else {
      const HttpRoute* route = nullptr;
      for (const HttpRoute& r : opts_.routes) {
        if (r.path == path && r.handler) {
          route = &r;
          break;
        }
      }
      if (route != nullptr) {
        response =
            make_response(200, "OK", route->content_type, route->handler());
      } else {
        response = make_response(404, "Not Found", "text/plain",
                                 "unknown path " + path + "\n");
      }
    }
  } catch (const std::exception& e) {
    response = make_response(500, "Internal Server Error", "text/plain",
                             std::string("exporter error: ") + e.what() +
                                 "\n");
  }
  (void)write_all(fd, response);
}

std::string http_get(const std::string& host, int port,
                     const std::string& path, int timeout_ms) {
  const int fd = net::connect_tcp(host, port, timeout_ms);
  set_io_timeouts(fd, timeout_ms);

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!write_all(fd, request)) {
    ::close(fd);
    throw IoError("http_get: send failed to " + host + ":" +
                  std::to_string(port));
  }

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      throw IoError("http_get: recv failed from " + host + ":" +
                    std::to_string(port));
    }
    if (n == 0) break;  // server closed: full response received
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get_local(int port, const std::string& path,
                           int timeout_ms) {
  return http_get("127.0.0.1", port, path, timeout_ms);
}

}  // namespace wm::obs
