#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "common/stringutil.h"

namespace zeus::net {

namespace {

using Clock = std::chrono::steady_clock;

// Remaining budget of a deadline started `deadline_ms` ago at `start`;
// -1 (poll's "infinite") when deadline_ms <= 0.
int RemainingMs(Clock::time_point start, int deadline_ms) {
  if (deadline_ms <= 0) return -1;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - start)
                           .count();
  const long left = deadline_ms - static_cast<long>(elapsed);
  return left > 0 ? static_cast<int>(left) : 0;
}

common::Status Unavailable(const std::string& what) {
  return common::Status::Unavailable(what + ": " + ::strerror(errno));
}

bool SetBlocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool ParseAddr(const std::string& host, int port, sockaddr_in* addr) {
  ::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  const std::string h = host.empty() ? "127.0.0.1" : host;
  return ::inet_pton(AF_INET, h.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

common::Status TcpSocket::Connect(const std::string& host, int port,
                                  int timeout_ms) {
  Close();
  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) {
    return common::Status::InvalidArgument("bad address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket");
  if (!SetBlocking(fd, false)) {
    ::close(fd);
    return Unavailable("fcntl");
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return Unavailable(common::Format("connect %s:%d", host.c_str(), port));
  }
  if (rc != 0) {
    pollfd p{fd, POLLOUT, 0};
    rc = ::poll(&p, 1, timeout_ms > 0 ? timeout_ms : -1);
    if (rc <= 0) {
      ::close(fd);
      return common::Status::Unavailable(
          common::Format("connect %s:%d timed out", host.c_str(), port));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      errno = err;
      return Unavailable(common::Format("connect %s:%d", host.c_str(), port));
    }
  }
  if (!SetBlocking(fd, true)) {
    ::close(fd);
    return Unavailable("fcntl");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return common::Status::Ok();
}

common::Status TcpSocket::WriteAll(const void* data, size_t n,
                                   int deadline_ms) {
  if (fd_ < 0) return common::Status::Unavailable("socket closed");
  const auto start = Clock::now();
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < n) {
    pollfd pfd{fd_, POLLOUT, 0};
    const int remaining = RemainingMs(start, deadline_ms);
    if (deadline_ms > 0 && remaining == 0) {
      return common::Status::Unavailable("write deadline exceeded");
    }
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc == 0) return common::Status::Unavailable("write deadline exceeded");
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Unavailable("poll");
    }
    // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not SIGPIPE.
    const ssize_t w = ::send(fd_, p + done, n - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Unavailable("send");
    }
    done += static_cast<size_t>(w);
  }
  return common::Status::Ok();
}

common::Status TcpSocket::ReadAll(void* data, size_t n, int deadline_ms) {
  if (fd_ < 0) return common::Status::Unavailable("socket closed");
  const auto start = Clock::now();
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < n) {
    pollfd pfd{fd_, POLLIN, 0};
    const int remaining = RemainingMs(start, deadline_ms);
    if (deadline_ms > 0 && remaining == 0) {
      return common::Status::Unavailable("read deadline exceeded");
    }
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc == 0) return common::Status::Unavailable("read deadline exceeded");
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Unavailable("poll");
    }
    const ssize_t r = ::recv(fd_, p + done, n - done, 0);
    if (r == 0) {
      // Clean close. Between frames (nothing read yet) this is the normal
      // way a peer ends a connection; mid-frame it means the peer died.
      return done == 0 ? common::Status::NotFound("connection closed")
                       : common::Status::Unavailable("peer closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Unavailable("recv");
    }
    done += static_cast<size_t>(r);
  }
  return common::Status::Ok();
}

common::Status TcpListener::Listen(const std::string& host, int port) {
  Close();
  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) {
    return common::Status::InvalidArgument("bad address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Unavailable(common::Format("bind %s:%d", host.c_str(), port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Unavailable("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Unavailable("getsockname");
  }
  fd_.store(fd);
  port_ = ntohs(addr.sin_port);
  return common::Status::Ok();
}

common::Result<TcpSocket> TcpListener::Accept() {
  // Snapshot the fd: Close() from another thread is the documented way to
  // stop an accept loop.
  const int fd = fd_.load();
  if (fd < 0) return common::Status::Unavailable("listener closed");
  const int conn = ::accept(fd, nullptr, nullptr);
  if (conn < 0) {
    if (fd_.load() < 0) return common::Status::Unavailable("listener closed");
    return Unavailable("accept");
  }
  int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpSocket(conn);
}

void TcpListener::Close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first so a blocked accept() returns even on Linux where
    // close() alone does not reliably wake it.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace zeus::net
