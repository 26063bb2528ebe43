#include "net/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace wm::net {

void set_io_timeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, p + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const std::string& data) {
  return write_all(fd, data.data(), data.size());
}

int listen_tcp(const std::string& bind_address, int port, int backlog,
               int* bound_port) {
  WM_CHECK(port >= 0 && port <= 65535, "bad TCP port ", port);
  WM_CHECK(backlog > 0, "backlog must be positive");
  WM_CHECK(bound_port != nullptr, "bound_port must not be null");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("listen_tcp: socket() failed");

  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw IoError("listen_tcp: bad bind address " + bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("listen_tcp: cannot bind " + bind_address + ":" +
                  std::to_string(port) + " (" + std::strerror(err) + ")");
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError(std::string("listen_tcp: listen() failed (") +
                  std::strerror(err) + ")");
  }

  socklen_t len = sizeof(addr);
  *bound_port = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    *bound_port = static_cast<int>(ntohs(addr.sin_port));
  }
  return fd;
}

int connect_tcp(const std::string& host, int port, int timeout_ms) {
  WM_CHECK(port > 0 && port <= 65535, "bad TCP port ", port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("connect_tcp: socket() failed");
  set_io_timeouts(fd, timeout_ms);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw IoError("connect_tcp: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("connect_tcp: cannot connect to " + host + ":" +
                  std::to_string(port) + " (" + std::strerror(err) + ")");
  }
  return fd;
}

WakePipe::WakePipe() {
  // Both ends non-blocking: drain() must stop at "pipe empty", and wake()
  // into a full pipe must return at once (a full pipe already wakes).
  if (::pipe2(fds_, O_NONBLOCK) != 0) {
    throw IoError("WakePipe: pipe2() failed");
  }
}

WakePipe::~WakePipe() { close(); }

void WakePipe::wake() {
  if (fds_[1] < 0) return;
  const char byte = 'w';
  (void)!::write(fds_[1], &byte, 1);
}

void WakePipe::drain() {
  if (fds_[0] < 0) return;
  char buf[64];
  while (::read(fds_[0], buf, sizeof(buf)) > 0) {
  }
}

void WakePipe::close() {
  for (int& fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

}  // namespace wm::net
