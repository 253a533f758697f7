#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/obs.hpp"

namespace bstc::net {
namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Resolve a numeric-or-name host into a sockaddr_in (IPv4; the runtime
/// targets loopback and cluster interconnects, both of which expose v4).
sockaddr_in resolve(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  BSTC_REQUIRE(rc == 0 && res != nullptr,
               "net: cannot resolve host '" + host + "'");
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::send_all(const void* data, std::size_t size) {
  BSTC_REQUIRE(valid(), "net: send on a closed socket");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(errno_text("net: send failed"));
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Socket::recv_exact(void* out, std::size_t size) {
  BSTC_REQUIRE(valid(), "net: recv on a closed socket");
  auto* p = static_cast<std::uint8_t*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(errno_text("net: recv failed"));
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between messages
      throw Error("net: peer closed mid-frame (" + std::to_string(got) +
                  " of " + std::to_string(size) + " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_write() {
  if (valid()) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BSTC_REQUIRE(fd >= 0, errno_text("net: socket() failed"));
  sock_ = Socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = resolve(host, port);
  BSTC_REQUIRE(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      errno_text("net: bind to " + host + ":" + std::to_string(port) +
                 " failed"));
  BSTC_REQUIRE(::listen(fd, 64) == 0, errno_text("net: listen failed"));
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  BSTC_REQUIRE(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
      errno_text("net: getsockname failed"));
  port_ = ntohs(bound.sin_port);
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  pollfd pfd{sock_.fd(), POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error(errno_text("net: poll failed"));
    }
    if (rc == 0) return std::nullopt;  // timeout
    break;
  }
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  BSTC_REQUIRE(fd >= 0, errno_text("net: accept failed"));
  set_nodelay(fd);
  return Socket(fd);
}

Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          const RetryPolicy& policy) {
  obs::Registry& reg = obs::Registry::current();
  int backoff = policy.initial_backoff_ms;
  std::string last_error;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    // Resolution lives inside the loop: at worker startup the resolver
    // can fail transiently just like connect() can, and both must be
    // absorbed by the same backoff policy rather than aborting the rank.
    try {
      const sockaddr_in addr = resolve(host, port);
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      BSTC_REQUIRE(fd >= 0, errno_text("net: socket() failed"));
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        set_nodelay(fd);
        if (attempt > 0) reg.counter_add("bstc_wire_reconnects_total");
        return Socket(fd);
      }
      last_error = errno_text("connect");
      ::close(fd);
    } catch (const std::exception& e) {
      last_error = e.what();
    }
    if (attempt + 1 < policy.max_attempts) {
      reg.counter_add("bstc_wire_connect_retries_total");
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, policy.max_backoff_ms);
    }
  }
  throw Error("net: cannot connect to " + host + ":" + std::to_string(port) +
              " after " + std::to_string(policy.max_attempts) +
              " attempts (" + last_error + ")");
}

void send_frame(Socket& sock, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  obs::Registry& reg = obs::Registry::current();
  const bool trace = reg.enabled();
  const double start = trace ? reg.now() : 0.0;
  sock.send_all(bytes.data(), bytes.size());
  // Span and counts commit under one registry lock: a trace snapshot
  // taken mid-run sees both or neither, so summed tx-span bytes always
  // equal the counter exactly.
  reg.record_counted(
      obs::Category::kCommTx,
      trace ? std::string("tx(") + frame_type_name(frame.type) + ")" : "",
      obs::thread_lane(), start, trace ? reg.now() : 0.0, bytes.size(),
      {{"bstc_wire_frames_sent_total", 1},
       {"bstc_wire_bytes_sent_total", bytes.size()}});
}

std::optional<Frame> recv_frame(Socket& sock) {
  std::uint8_t header[kWireHeaderBytes];
  if (!sock.recv_exact(header, sizeof header)) return std::nullopt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, header, 4);
  BSTC_REQUIRE(magic == kWireMagic, "wire: bad magic on stream");
  std::uint32_t len = 0;
  std::memcpy(&len, header + 8, 4);
  BSTC_REQUIRE(len <= kMaxPayloadBytes,
               "wire: payload length exceeds limit on stream");
  std::vector<std::uint8_t> buffer(kWireHeaderBytes + len +
                                   kWireChecksumBytes);
  std::memcpy(buffer.data(), header, kWireHeaderBytes);
  // The rx span starts after the header: blocking idle time between
  // frames is not receive work.
  obs::Registry& reg = obs::Registry::current();
  const bool trace = reg.enabled();
  const double start = trace ? reg.now() : 0.0;
  const bool ok = sock.recv_exact(buffer.data() + kWireHeaderBytes,
                                  len + kWireChecksumBytes);
  BSTC_REQUIRE(ok, "wire: peer closed mid-frame");
  Frame frame = decode_frame(buffer.data(), buffer.size());
  reg.record_counted(
      obs::Category::kCommRx,
      trace ? std::string("rx(") + frame_type_name(frame.type) + ")" : "",
      obs::thread_lane(), start, trace ? reg.now() : 0.0, buffer.size(),
      {{"bstc_wire_frames_received_total", 1},
       {"bstc_wire_bytes_received_total", buffer.size()}});
  return frame;
}

}  // namespace bstc::net
