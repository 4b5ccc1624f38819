// serve::Client -- the library-side counterpart of serve::Server: one
// connection speaking the framed wire protocol (serve/protocol.hpp).
//
// This is what `rchls request` is built on, and what tests and
// perfbench use to drive an in-process daemon over real sockets.
// One Client is one connection with synchronous call semantics: each
// call sends one frame and blocks for its one reply frame (the server
// guarantees request-ordered replies, so pipelining is possible over
// raw sockets, but this class keeps the simple one-outstanding model --
// open more Clients for concurrency, they are cheap).
//
// Reliability knobs (ClientOptions): a per-call deadline and a bounded
// retry budget with exponential backoff. A retry RECONNECTS first --
// after a timeout the old connection may still deliver the stale reply
// later, which would desynchronize the request/reply pairing, so the
// stream is abandoned wholesale. Retrying is safe because every rchls
// request is deterministic and idempotent: re-asking cannot change the
// answer or double any effect. Server-answered ERROR envelopes are
// never retried -- the server is alive and has spoken.
//
// Error surfaces, separated by kind:
//  * transport problems (cannot connect, server gone, mid-reply
//    disconnect, deadline exhausted after every retry) throw
//    rchls::Error("socket: ...");
//  * server-answered errors (malformed request, structural engine
//    error, queue overflow) come back as Reply::error from call_reply,
//    and call() re-raises them as rchls::Error("serve: ...") for
//    callers that treat them as exceptional.
//
// Not thread-safe: one Client per thread (like Session).
#pragma once

#include <string>

#include "api/request.hpp"
#include "api/result.hpp"
#include "serve/protocol.hpp"
#include "util/socket.hpp"

namespace rchls::serve {

struct ClientOptions {
  /// Per-attempt reply deadline in milliseconds; 0 = wait forever.
  int timeout_ms = 0;
  /// Extra attempts after a transport failure (timeout, refused
  /// connection, mid-reply disconnect); 0 = fail on the first.
  int retries = 0;
  /// Backoff before retry r is backoff_ms << (r-1) (100, 200, 400...).
  int backoff_ms = 100;
};

class Client {
 public:
  /// Connect to a daemon's unix socket / 127.0.0.1 TCP port / remote
  /// host:port. Throw rchls::Error when nothing is listening (after
  /// ClientOptions::retries reconnect attempts).
  static Client connect_unix(const std::string& path,
                             ClientOptions options = {});
  static Client connect_tcp(int port, ClientOptions options = {});
  static Client connect_host(const std::string& host, int port,
                             ClientOptions options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Round-trips one request; throws rchls::Error("serve: ...") when
  /// the server answered an error envelope.
  api::Result call(const api::Request& req);

  /// Like call(), but server-side errors are returned as Reply::error
  /// instead of thrown.
  Reply call_reply(const api::Request& req);

  /// Asks the daemon for its lifetime counters (`kind:"stats"`).
  DaemonStats call_stats();

  /// Lowest level: sends `payload` as one frame verbatim (it need not
  /// be a valid envelope -- tests probe the server's error paths with
  /// this) and returns the raw reply payload. Owns the timeout/retry
  /// loop every higher-level call goes through.
  std::string call_raw(const std::string& payload);

 private:
  Client(util::Socket sock, std::string unix_path, std::string host,
         int port, ClientOptions options);

  /// (Re)establishes sock_ from the remembered endpoint and applies the
  /// deadline; used by the factories and by retry.
  void reconnect();

  util::Socket sock_;
  std::string unix_path_;  ///< non-empty for unix endpoints
  std::string host_;       ///< non-empty for host:port endpoints
  int port_ = -1;          ///< >= 0 for TCP endpoints
  ClientOptions options_;
};

}  // namespace rchls::serve
