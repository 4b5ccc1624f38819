// Framed socket I/O: the byte-transport layer beneath the serve
// subsystem (src/serve/), kept in util so any future remote transport
// (the ROADMAP's ssh/remote executor rung) reuses the same framing.
//
// Two pieces:
//
//  * RAII descriptor wrappers. Socket owns one connected descriptor;
//    Listener owns a bound+listening one (a Unix-domain path or a TCP
//    socket on 127.0.0.1 -- loopback only, this is not an exposed
//    network service). Both close on destruction and are move-only.
//
//  * Length-delimited framing. A frame is a 4-byte big-endian payload
//    length followed by that many bytes. send_frame/recv_frame handle
//    partial reads/writes and EINTR, and recv_frame enforces a caller
//    cap so a hostile or corrupt length prefix cannot make the server
//    allocate unbounded memory. The framing is payload-agnostic; the
//    serve protocol puts `rchls.wire.v1` JSON envelopes inside it
//    (docs/serving.md).
//
// Blocking model: everything here blocks. Concurrency is the caller's
// job (serve::Server runs one reader thread per connection); a blocked
// recv_frame is unblocked by shutdown_both() from another thread.
//
// Errors: constructors/factories and I/O throw rchls::Error("socket:
// ...") -- except recv_frame's clean end-of-stream, which is a regular
// return (nullopt), because a peer hanging up between frames is normal
// protocol flow, not a failure. Windows is unsupported: every entry
// point throws there (the serve subsystem is POSIX-only).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace rchls::util {

/// Hard ceiling for a frame payload (64 MiB). Callers may pass a
/// smaller cap to recv_frame; larger caps are clamped to this.
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Thrown when a socket with a receive/send deadline (set_recv_timeout_ms
/// / set_send_timeout_ms) times out at a FRAME BOUNDARY -- i.e. recv_frame
/// waited out the deadline before the first byte of a frame arrived, or
/// send_frame could not start writing. A deadline expiring MID-frame
/// throws plain Error instead: a half-transferred frame cannot be
/// re-synchronized, so that connection is unrecoverable, while a
/// boundary timeout is a policy event (an idle client to reap, a slow
/// server to retry elsewhere) on a still-consistent stream.
class SocketTimeout : public Error {
 public:
  explicit SocketTimeout(const std::string& what) : Error(what) {}
};

/// A connected (or accepted) socket descriptor. Move-only; closes on
/// destruction.
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

  /// shutdown(SHUT_RDWR): unblocks a reader/writer in another thread
  /// without racing the descriptor's lifetime the way close() would.
  /// Safe on an already-shut-down or invalid socket.
  void shutdown_both();

  /// Receive/send deadlines (SO_RCVTIMEO / SO_SNDTIMEO). 0 restores the
  /// default block-forever behavior. With a deadline set, recv_frame /
  /// send_frame throw SocketTimeout at a frame boundary and plain Error
  /// mid-frame (see SocketTimeout). No-ops on an invalid socket.
  void set_recv_timeout_ms(int ms);
  void set_send_timeout_ms(int ms);

  void close();

 private:
  int fd_ = -1;
};

/// A bound, listening socket. Unix-domain listeners unlink a stale
/// socket file at bind time and remove their path on destruction.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks for the next connection. Returns an invalid Socket when the
  /// listener was shut down (the orderly-stop path); throws on real
  /// accept failures.
  Socket accept();

  /// Unblocks accept() in another thread.
  void shutdown();

  bool valid() const { return fd_ >= 0; }
  /// The bound TCP port (resolved after binding port 0), 0 for
  /// unix-domain listeners.
  int port() const { return port_; }
  const std::string& path() const { return path_; }

 private:
  friend Listener listen_unix(const std::string& path, int backlog);
  friend Listener listen_tcp_loopback(int port, int backlog);

  int fd_ = -1;
  int port_ = 0;
  std::string path_;  ///< unix-domain only; unlinked on destruction
};

/// Binds and listens on a Unix-domain socket at `path`, replacing any
/// stale socket file left by a crashed process.
Listener listen_unix(const std::string& path, int backlog = 64);

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral; read the
/// resolved port back with Listener::port()).
Listener listen_tcp_loopback(int port, int backlog = 64);

/// Connects to a Unix-domain / loopback-TCP listener.
Socket connect_unix(const std::string& path);
Socket connect_tcp_loopback(int port);

/// Connects to `host`:`port` (IPv4/IPv6, names resolved via the system
/// resolver). This is the fleet-client side of a `host:port` endpoint
/// spec; the serve daemon itself still binds loopback only, so remote
/// hosts are reached through a forwarded port or tunnel.
Socket connect_tcp(const std::string& host, int port);

/// Writes one length-prefixed frame. Throws on any short write or a
/// payload over kMaxFrameBytes (the peer could never legally read it).
void send_frame(const Socket& sock, const std::string& payload);

/// Reads one frame. Returns nullopt on clean end-of-stream BEFORE any
/// length byte; throws on a mid-frame EOF (the peer died mid-request),
/// an I/O error, or a length prefix over min(max_bytes, kMaxFrameBytes).
std::optional<std::string> recv_frame(const Socket& sock,
                                      std::uint32_t max_bytes =
                                          kMaxFrameBytes);

}  // namespace rchls::util
