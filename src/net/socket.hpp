#pragma once

/// \file socket.hpp
/// Thin RAII wrappers over POSIX TCP sockets, plus frame I/O.
///
/// Everything here is blocking; concurrency lives in NetTransport's
/// progress/receiver threads, not in the socket layer. Connects retry
/// with exponential backoff (workers race the rendezvous listener and
/// each other's mesh listeners at startup), sends use MSG_NOSIGNAL so a
/// dead peer surfaces as an Error instead of SIGPIPE, and TCP_NODELAY is
/// set on every connection (tile messages are latency-sensitive).

#include <cstdint>
#include <optional>
#include <string>

#include "net/wire.hpp"

namespace bstc::net {

/// Connect retry policy. With the defaults a connect keeps trying for
/// roughly 15 s before giving up — generous for loopback, tolerable for
/// a worker whose peers are still being forked.
struct RetryPolicy {
  int max_attempts = 10;
  int initial_backoff_ms = 30;  ///< doubles per failed attempt (capped)
  int max_backoff_ms = 3000;
};

/// Move-only owner of one connected TCP socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write exactly `size` bytes; throws bstc::Error on a broken peer.
  void send_all(const void* data, std::size_t size);

  /// Read exactly `size` bytes. Returns false on a clean EOF *before the
  /// first byte*; throws on EOF mid-buffer or a socket error.
  bool recv_exact(void* out, std::size_t size);

  /// Half-close the write side (signals EOF to the peer's reader).
  void shutdown_write();

  /// Shut down both directions without releasing the fd. A reader blocked
  /// in recv() on another thread wakes with EOF — the safe way to unblock
  /// it (a plain close() would race the fd number being reused).
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to a local address.
class Listener {
 public:
  /// Bind + listen on `host:port`; port 0 picks an ephemeral port (read
  /// it back with local_port()).
  Listener(const std::string& host, std::uint16_t port);
  ~Listener() = default;
  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;

  std::uint16_t local_port() const { return port_; }

  /// Accept one connection, waiting at most `timeout_ms` (<0 = forever).
  /// Returns nullopt on timeout.
  std::optional<Socket> accept(int timeout_ms = -1);

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connect to `host:port`, retrying with exponential backoff. Failed
/// attempts count in `bstc_wire_connect_retries_total`; a connection
/// that needed at least one retry counts in `bstc_wire_reconnects_total`
/// (both in obs::Registry::current()). Throws after the last attempt
/// fails.
Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          const RetryPolicy& policy = {});

/// Send one frame (encode + write). Counts it, with its on-wire bytes
/// (framing included), in obs::Registry::current()'s
/// `bstc_wire_frames_sent_total` / `bstc_wire_bytes_sent_total`.
void send_frame(Socket& sock, const Frame& frame);

/// Receive one frame. Returns nullopt on clean EOF between frames; throws
/// bstc::Error on a corrupt header/checksum or mid-frame EOF. Counts it
/// in `bstc_wire_frames_received_total` / `bstc_wire_bytes_received_total`.
std::optional<Frame> recv_frame(Socket& sock);

}  // namespace bstc::net
