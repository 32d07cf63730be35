#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>

namespace fannr::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Test-only transmit faults (see ScopedWriteFaultInjection). Relaxed
// atomics: tests install them before traffic and remove them after.
std::atomic<size_t> g_fault_max_chunk{0};
std::atomic<size_t> g_fault_eintr_period{0};
std::atomic<size_t> g_fault_transmit_count{0};

/// Caps `want` per the installed fault and reports whether this
/// transmit attempt should instead fail with a synthetic EINTR.
bool FaultyTransmit(size_t& want) {
  const size_t cap = g_fault_max_chunk.load(std::memory_order_relaxed);
  if (cap > 0 && want > cap) want = cap;
  const size_t period = g_fault_eintr_period.load(std::memory_order_relaxed);
  if (period > 0 &&
      g_fault_transmit_count.fetch_add(1, std::memory_order_relaxed) %
              period ==
          period - 1) {
    errno = EINTR;
    return true;
  }
  return false;
}

}  // namespace

ScopedWriteFaultInjection::ScopedWriteFaultInjection(
    const WriteFaultInjection& faults) {
  g_fault_transmit_count.store(0, std::memory_order_relaxed);
  g_fault_max_chunk.store(faults.max_chunk_bytes, std::memory_order_relaxed);
  g_fault_eintr_period.store(faults.eintr_period, std::memory_order_relaxed);
}

ScopedWriteFaultInjection::~ScopedWriteFaultInjection() {
  g_fault_max_chunk.store(0, std::memory_order_relaxed);
  g_fault_eintr_period.store(0, std::memory_order_relaxed);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool Socket::ReadFull(void* data, size_t size, bool* eof) const {
  if (eof != nullptr) *eof = false;
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd_, p + done, size - done, 0);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (eof != nullptr) *eof = done == 0;
      return false;
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Socket::WriteFull(const void* data, size_t size) const {
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < size) {
    // A blocking send(2) may still transmit fewer bytes than asked (a
    // signal after a partial transfer, a small SO_SNDBUF) — the loop
    // continues from wherever the kernel stopped, so a frame can never
    // interleave with a concurrent writer's bytes mid-way. MSG_NOSIGNAL
    // turns a dead peer into EPIPE instead of a process-killing SIGPIPE.
    size_t want = size - done;
    const ssize_t n = FaultyTransmit(want)
                          ? -1
                          : ::send(fd_, p + done, want, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Socket::SetNonBlocking() const {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

ssize_t Socket::SendSome(const void* data, size_t size) const {
  while (true) {
    // The same fault hooks as WriteFull: a capped chunk exercises the
    // partial-flush/EPOLLOUT continuation in the event loop, and a
    // synthetic EINTR must be retried here, not surfaced as an error.
    size_t want = size;
    const ssize_t n = FaultyTransmit(want)
                          ? -1
                          : ::send(fd_, data, want, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

ssize_t Socket::RecvSome(void* data, size_t size) const {
  while (true) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

Socket TcpListen(const std::string& host, uint16_t port,
                 uint16_t* bound_port, std::string* error) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return Socket();
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address: " + host;
    return Socket();
  }
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = Errno("bind");
    return Socket();
  }
  if (::listen(sock.fd(), SOMAXCONN) != 0) {
    if (error != nullptr) *error = Errno("listen");
    return Socket();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      if (error != nullptr) *error = Errno("getsockname");
      return Socket();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return sock;
}

Socket TcpConnect(const std::string& host, uint16_t port,
                  std::string* error) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return Socket();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address: " + host;
    return Socket();
  }
  while (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    if (error != nullptr) *error = Errno("connect");
    return Socket();
  }
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace fannr::net
