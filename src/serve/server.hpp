// serve::Server -- the resident request daemon behind `rchls serve`.
//
// One Server keeps one warm api::Session (memory cache -> disk
// cache -> executor) resident and serves wire envelopes to any number
// of concurrent clients over length-framed sockets (util/socket):
//
//   listeners (unix path, optional 127.0.0.1 TCP)
//     -> one reader thread per accepted connection
//       -> bounded handoff queue (serve/queue.hpp)  [backpressure]
//         -> worker pool, each worker: decode -> Session::run
//            -> encode -> ordered per-connection reply
//
// Contracts (docs/serving.md spells out the full lifecycle):
//
//  * Every received frame gets exactly one reply frame: a result
//    envelope, or an error envelope (serve/protocol.hpp) for malformed
//    payloads, structural engine errors, and queue overflow. Overflow
//    REFUSES instead of buffering: when the queue is full the reader
//    answers `error` immediately -- a flooded daemon stays responsive
//    and its memory stays bounded.
//  * Replies on one connection are written in request order, even when
//    the pool finishes them out of order (per-connection sequencing),
//    so pipelined clients can match replies to requests positionally.
//  * A client that sends garbage, an oversized frame, or disconnects
//    mid-frame costs exactly its own connection; the daemon and every
//    other connection keep running (tests hammer this).
//  * Results are byte-identical to a local Session run: same wire
//    encoder, same cache layers, same engines. A warm daemon (or one
//    restarted over the same --cache-dir) serves popular requests with
//    zero engine executions -- CI greps the warm pass for `executed=0`.
//
// Construction binds and starts serving; stop() (idempotent, also run
// by the destructor) refuses new work, drains accepted requests, and
// joins every thread. Tests and perfbench run Servers in-process; the
// CLI wraps one in a signal-driven main loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "util/socket.hpp"

namespace rchls::serve {

struct ServerOptions {
  /// Unix-domain listener path; empty = no unix listener.
  std::string socket_path;
  /// 127.0.0.1 TCP listener port; -1 = no TCP listener, 0 = ephemeral
  /// (read back with Server::tcp_port()). At least one listener is
  /// required.
  int tcp_port = -1;
  /// Backpressure bound: requests admitted but not yet finished beyond
  /// this are refused with an overflow error envelope (>= 1).
  std::size_t max_queue = 64;
  /// Worker threads draining the queue (>= 1). Cache hits are served
  /// concurrently; executions additionally serialize inside the
  /// Session (the engines own the parallelism).
  std::size_t workers = 2;
  /// Per-frame payload cap (clamped to util::kMaxFrameBytes).
  std::uint32_t max_frame_bytes = util::kMaxFrameBytes;
  /// Concurrent-connection cap; 0 = unlimited. A connection accepted
  /// over the cap is answered one error envelope and closed immediately
  /// (refusal over silent queueing, like the frame backpressure).
  std::size_t max_connections = 0;
  /// Reap a connection after this many seconds without a frame; 0 =
  /// never. A connection with requests still in flight is NOT reaped --
  /// a client blocked on a long computation sends nothing and is not
  /// idle. Dead clients that vanished without a FIN stop pinning reader
  /// threads forever.
  int idle_timeout_s = 0;
  /// The resident session's knobs: cache_dir shares a persistent cache
  /// across daemon restarts, jobs caps the engine pool.
  api::SessionOptions session;
  /// When set, one line per served request / error is written here
  /// (under a lock). The CLI passes stderr; CI greps these lines.
  std::ostream* log = nullptr;
};

/// Monotonic counters over the daemon's lifetime (all atomically
/// sampled; `errors` counts error replies of every cause, `overflows`
/// the subset refused by backpressure).
struct ServeStats {
  std::uint64_t connections = 0;  ///< admitted (refused ones excluded)
  std::uint64_t active_connections = 0;
  std::uint64_t refused_connections = 0;  ///< over max_connections
  std::uint64_t idle_reaped = 0;          ///< reaped by idle_timeout_s
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t overflows = 0;
};

class Server {
 public:
  /// Binds every configured listener and starts the threads; when this
  /// returns, clients may connect. Throws rchls::Error on bad options
  /// or bind failure.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Orderly shutdown: stop accepting, refuse new frames, drain the
  /// queue, join all threads. Idempotent and thread-safe.
  void stop();

  /// The resolved TCP port (0 when no TCP listener was configured).
  int tcp_port() const { return tcp_port_; }
  const std::string& socket_path() const { return options_.socket_path; }

  ServeStats stats() const;
  api::SessionStats session_stats() const { return session_.stats(); }
  /// The serve + session counters flattened into the stats-envelope
  /// shape -- what a `kind:"stats"` request is answered with.
  DaemonStats daemon_stats() const;
  /// Engine executions since startup -- the "warm daemon executes
  /// nothing" acceptance counter.
  std::uint64_t executions() const { return session_.executions(); }

 private:
  struct Conn {
    util::Socket sock;
    // Reply sequencing: the reader hands each frame a ticket; a writer
    // (worker or the reader's own error path) waits for its turn, so
    // reply frames leave in request order.
    std::mutex reply_mu;
    std::condition_variable reply_cv;
    std::uint64_t next_reply = 0;
    // Admitted-but-unanswered frames; the idle reaper only fires at 0
    // (a client waiting on a long computation is silent, not idle).
    std::atomic<std::uint64_t> outstanding{0};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Job {
    std::string payload;
    ConnPtr conn;
    std::uint64_t seq = 0;
  };

  void accept_loop(util::Listener& listener);
  void serve_connection(ConnPtr conn);
  void worker_loop();
  void write_reply(Conn& conn, std::uint64_t seq, const std::string& payload);
  void log_line(const std::string& line);

  ServerOptions options_;
  int tcp_port_ = 0;
  api::Session session_;
  BoundedQueue<Job> queue_;

  std::vector<util::Listener> listeners_;
  std::vector<std::thread> accept_threads_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::weak_ptr<Conn>> conns_;

  // Reader threads are detached; stop() waits for this count to drain
  // so no thread can outlive the Server.
  std::mutex readers_mu_;
  std::condition_variable readers_done_;
  std::size_t active_readers_ = 0;

  std::mutex log_mu_;
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> active_connections_{0};
  std::atomic<std::uint64_t> refused_connections_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> overflows_{0};
};

}  // namespace rchls::serve
