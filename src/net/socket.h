// Thin POSIX TCP wrappers for the FANN_R server and client.
//
// Deliberately minimal: RAII ownership of a file descriptor, loopback/
// INADDR listen with ephemeral-port support (tests and CI bind port 0
// and read the kernel-assigned port back), and full-buffer read/write
// that handles partial transfers and EINTR. Everything returns errors
// by value — no exceptions, no global state.

#ifndef FANNR_NET_SOCKET_H_
#define FANNR_NET_SOCKET_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace fannr::net {

/// Owns one file descriptor; closes it on destruction. Movable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes the descriptor (idempotent).
  void Close();

  /// shutdown(2) both directions: unblocks a peer thread parked in
  /// ReadFull on this socket without racing the close. Safe to call from
  /// a different thread than the reader.
  void ShutdownBoth();

  /// Reads exactly `size` bytes. Returns false on EOF or error (with
  /// `eof` distinguishing a clean close before the first byte).
  bool ReadFull(void* data, size_t size, bool* eof = nullptr) const;

  /// Writes exactly `size` bytes. Returns false on error (e.g. the peer
  /// closed); SIGPIPE is suppressed via MSG_NOSIGNAL.
  bool WriteFull(const void* data, size_t size) const;

  /// Puts the descriptor in O_NONBLOCK mode (event-loop sockets).
  bool SetNonBlocking() const;

  /// One best-effort send for nonblocking sockets: transmits whatever
  /// the kernel accepts right now. Returns bytes sent (> 0), or -1 with
  /// errno set (EAGAIN/EWOULDBLOCK = kernel buffer full, try after
  /// EPOLLOUT). EINTR — real or fault-injected — is retried internally;
  /// SIGPIPE is suppressed via MSG_NOSIGNAL.
  ssize_t SendSome(const void* data, size_t size) const;

  /// One best-effort recv for nonblocking sockets. Returns bytes read
  /// (> 0), 0 on peer EOF, or -1 with errno set (EAGAIN = drained).
  /// EINTR is retried internally.
  ssize_t RecvSome(void* data, size_t size) const;

 private:
  int fd_ = -1;
};

/// Binds and listens on `host:port` (IPv4 dotted quad; port 0 = kernel
/// picks). On success returns a valid socket and stores the actual port
/// in `bound_port`; on failure returns an invalid socket with a reason
/// in `error`.
Socket TcpListen(const std::string& host, uint16_t port,
                 uint16_t* bound_port, std::string* error);

/// Connects to `host:port`. Invalid socket + `error` on failure.
Socket TcpConnect(const std::string& host, uint16_t port, std::string* error);

/// Test-only fault injection for the transmit path. While installed,
/// every send(2) issued by WriteFull/SendSome is capped to
/// `max_chunk_bytes` (forcing the short-write continuation paths to
/// run) and a synthetic EINTR is reported before every
/// `eintr_period`-th transmit attempt (0 disables either fault).
/// Process-global; tests install it through the RAII guard below so it
/// never leaks across tests.
struct WriteFaultInjection {
  size_t max_chunk_bytes = 0;
  size_t eintr_period = 0;
};

/// Installs `faults` for the lifetime of the guard, restoring clean
/// transmission on destruction.
class ScopedWriteFaultInjection {
 public:
  explicit ScopedWriteFaultInjection(const WriteFaultInjection& faults);
  ~ScopedWriteFaultInjection();
  ScopedWriteFaultInjection(const ScopedWriteFaultInjection&) = delete;
  ScopedWriteFaultInjection& operator=(const ScopedWriteFaultInjection&) =
      delete;
};

}  // namespace fannr::net

#endif  // FANNR_NET_SOCKET_H_
