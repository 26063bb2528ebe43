// Shared POSIX socket plumbing for every TCP surface in the repo.
//
// Both network front-ends — the obs HTTP exporter and the wm_net serving
// stack — need the same handful of primitives: a bound+listening IPv4
// socket with SO_REUSEADDR, per-socket IO timeouts, a write-everything
// helper that survives partial sends, a blocking client connect, and a
// self-pipe for waking a poll loop out of a blocking wait. They live here
// once (one socket layer, not two) so fixes to any of them reach every
// server.
//
// Everything throws wm::IoError on system-call failure unless documented
// otherwise; nothing here allocates on the IO path.
#pragma once

#include <cstddef>
#include <string>

namespace wm::net {

/// Sets SO_RCVTIMEO and SO_SNDTIMEO on `fd`. timeout_ms <= 0 leaves the
/// socket blocking without a timeout. Best-effort: setsockopt failures are
/// ignored (the socket simply stays blocking).
void set_io_timeouts(int fd, int timeout_ms);

/// Disables Nagle's algorithm (TCP_NODELAY) — small request/response frames
/// must not wait for an ACK-clocked coalescing window. Best-effort.
void set_nodelay(int fd);

/// Writes all `len` bytes, retrying partial sends (MSG_NOSIGNAL, so a dead
/// peer yields false instead of SIGPIPE). False on error or send timeout.
bool write_all(int fd, const void* data, std::size_t len);
bool write_all(int fd, const std::string& data);

/// Creates an IPv4 TCP listener: socket + SO_REUSEADDR + bind + listen.
/// `port` 0 binds an ephemeral port; `*bound_port` (required) receives the
/// actual one. Returns the listening fd; throws wm::IoError with the bind
/// address and errno text on failure (the fd is closed first).
int listen_tcp(const std::string& bind_address, int port, int backlog,
               int* bound_port);

/// Blocking IPv4 TCP connect to host:port with IO timeouts pre-set on the
/// returned fd. Throws wm::IoError when the address is bad or the
/// connection is refused / times out.
int connect_tcp(const std::string& host, int port, int timeout_ms);

/// A self-pipe for interrupting poll(): poll the read_fd() for POLLIN and
/// call wake() from any thread to make the loop spin. Closing is explicit
/// or via the destructor; wake() after close() is a no-op.
class WakePipe {
 public:
  /// Throws wm::IoError when pipe2() fails.
  WakePipe();
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// Writes one byte into the pipe (async-signal-safe, never blocks: when
  /// the pipe is full the write is dropped, and the pending bytes already
  /// wake the reader).
  void wake();

  /// Consumes every pending wake byte so a level-triggered poll stops
  /// reporting POLLIN.
  void drain();

  int read_fd() const { return fds_[0]; }

  /// Closes both ends (idempotent).
  void close();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace wm::net
