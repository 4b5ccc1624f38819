#include "serve/server.hpp"

#include "api/wire.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace rchls::serve {

namespace {

const char* source_name(api::RunSource s) {
  switch (s) {
    case api::RunSource::kMemoryCache:
      return "memory";
    case api::RunSource::kDiskCache:
      return "disk";
    case api::RunSource::kExecuted:
      return "executor";
  }
  return "?";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      session_(options_.session),
      queue_(options_.max_queue) {
  if (options_.max_queue < 1) {
    throw Error("serve: --max-queue must be at least 1");
  }
  if (options_.workers < 1) {
    throw Error("serve: --workers must be at least 1");
  }
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    throw Error("serve: need a --socket path or a --port to listen on");
  }

  if (!options_.socket_path.empty()) {
    listeners_.push_back(util::listen_unix(options_.socket_path));
  }
  if (options_.tcp_port >= 0) {
    listeners_.push_back(util::listen_tcp_loopback(options_.tcp_port));
    tcp_port_ = listeners_.back().port();
  }

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&Server::worker_loop, this);
  }
  accept_threads_.reserve(listeners_.size());
  for (auto& l : listeners_) {
    accept_threads_.emplace_back(&Server::accept_loop, this, std::ref(l));
  }
}

Server::~Server() { stop(); }

void Server::stop() {
  std::call_once(stop_once_, [&] {
    stopping_.store(true);
    // 1. No new connections: unblock and end every accept loop.
    for (auto& l : listeners_) l.shutdown();
    for (auto& t : accept_threads_) t.join();
    // 2. No new frames: unblock every connection reader.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& weak : conns_) {
        if (ConnPtr c = weak.lock()) c->sock.shutdown_both();
      }
    }
    {
      std::unique_lock<std::mutex> lock(readers_mu_);
      readers_done_.wait(lock, [&] { return active_readers_ == 0; });
    }
    // 3. Drain: workers finish every admitted request (replies to
    // shut-down sockets fail silently), then exit on the stopped queue.
    queue_.stop();
    for (auto& t : workers_) t.join();
    // 4. Release the listeners so a unix socket path disappears at
    // stop(), not at destruction -- a stopped daemon leaves no stale
    // socket file behind.
    listeners_.clear();
  });
}

ServeStats Server::stats() const {
  ServeStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.active_connections = active_connections_.load(std::memory_order_relaxed);
  s.refused_connections =
      refused_connections_.load(std::memory_order_relaxed);
  s.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.overflows = overflows_.load(std::memory_order_relaxed);
  return s;
}

void Server::log_line(const std::string& line) {
  if (options_.log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  *options_.log << line << "\n" << std::flush;
}

void Server::accept_loop(util::Listener& listener) {
  for (;;) {
    util::Socket sock;
    try {
      sock = listener.accept();
    } catch (const Error& e) {
      if (stopping_.load()) return;
      log_line("serve: accept error: " + std::string(e.what()));
      continue;
    }
    if (!sock.valid() || stopping_.load()) return;

    if (options_.max_connections > 0 &&
        active_connections_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      // Over the cap: one error envelope, then the door. Refusal beats
      // silently parking the client on a reader thread we said we would
      // not spend (same philosophy as queue overflow).
      refused_connections_.fetch_add(1, std::memory_order_relaxed);
      errors_.fetch_add(1, std::memory_order_relaxed);
      log_line("serve: connection refused (max-connections=" +
               std::to_string(options_.max_connections) + ")");
      try {
        util::send_frame(sock,
                         encode_error("server is at connection capacity "
                                      "(max-connections=" +
                                      std::to_string(options_.max_connections) +
                                      "); retry later"));
      } catch (const Error&) {
        // The refused client hung up first; nothing owed.
      }
      continue;
    }

    connections_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(sock);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Compact dead entries so a long-lived daemon's registry tracks
      // live connections, not every connection ever accepted.
      std::erase_if(conns_, [](const std::weak_ptr<Conn>& w) {
        return w.expired();
      });
      conns_.push_back(conn);
    }
    {
      std::lock_guard<std::mutex> lock(readers_mu_);
      ++active_readers_;
    }
    // Detached on purpose: connections come and go for the daemon's
    // whole life, so joinable handles would accumulate without bound.
    // stop() waits on active_readers_ instead, which gives the same
    // no-thread-outlives-the-Server guarantee.
    std::thread([this, conn = std::move(conn)]() mutable {
      serve_connection(std::move(conn));
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(readers_mu_);
      --active_readers_;
      readers_done_.notify_all();
    }).detach();
  }
}

void Server::serve_connection(ConnPtr conn) {
  if (options_.idle_timeout_s > 0) {
    conn->sock.set_recv_timeout_ms(options_.idle_timeout_s * 1000);
  }
  std::uint64_t seq = 0;
  for (;;) {
    std::optional<std::string> frame;
    try {
      frame = util::recv_frame(conn->sock, options_.max_frame_bytes);
    } catch (const util::SocketTimeout&) {
      // Frame-boundary timeout: the stream is still consistent, so this
      // is a policy decision, not an error. Reap only a connection with
      // nothing in flight -- a client waiting on a slow request is
      // silent by design and keeps its connection.
      if (conn->outstanding.load(std::memory_order_acquire) > 0 ||
          stopping_.load()) {
        continue;
      }
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      log_line("serve: idle connection reaped (idle-timeout-s=" +
               std::to_string(options_.idle_timeout_s) + ")");
      break;
    } catch (const Error& e) {
      // Oversized length prefix, mid-frame disconnect, or an I/O error:
      // this connection is unrecoverable (the stream cannot be
      // re-synchronized), but the failure is answered (best effort) and
      // contained -- the daemon itself never goes down with a client.
      errors_.fetch_add(1, std::memory_order_relaxed);
      log_line("serve: connection error: " + std::string(e.what()));
      write_reply(*conn, seq, encode_error(e.what()));
      break;
    }
    if (!frame || stopping_.load()) break;  // clean end-of-stream

    std::uint64_t my_seq = seq++;
    requests_.fetch_add(1, std::memory_order_relaxed);
    conn->outstanding.fetch_add(1, std::memory_order_release);
    if (!queue_.try_push(Job{std::move(*frame), conn, my_seq})) {
      // Backpressure: refuse loudly and immediately instead of letting
      // the daemon buffer (and eventually die) under flood.
      errors_.fetch_add(1, std::memory_order_relaxed);
      overflows_.fetch_add(1, std::memory_order_relaxed);
      log_line("serve: overflow: queue full (max-queue=" +
               std::to_string(queue_.capacity()) + "), request refused");
      write_reply(*conn, my_seq,
                  encode_error("server is at capacity (max-queue=" +
                               std::to_string(queue_.capacity()) +
                               "); retry later"));
      conn->outstanding.fetch_sub(1, std::memory_order_release);
    }
  }
  conn->sock.shutdown_both();
}

void Server::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    std::string reply;
    std::string line;
    try {
      if (is_stats_request(job->payload)) {
        // Admin exchange: counters only, never touches the session or
        // the engines (a stats probe must stay cheap on a busy daemon).
        reply = encode_stats(daemon_stats());
        line = "serve: stats";
        log_line(line);
        write_reply(*job->conn, job->seq, reply);
        job->conn->outstanding.fetch_sub(1, std::memory_order_release);
        continue;
      }
      api::Request req = api::wire::decode_request(job->payload);
      api::RunSource source{};
      api::Result res = session_.run(req, &source);
      reply = api::wire::encode(res);
      line = std::string("serve: ") + api::wire::kind_of(req) +
             " source=" + source_name(source) + " executed=" +
             (source == api::RunSource::kExecuted ? "1" : "0") +
             " queue=" + std::to_string(queue_.size());
    } catch (const Error& e) {
      // Decode and structural engine errors are replies, not daemon
      // failures; infeasible bounds never land here (they are results).
      errors_.fetch_add(1, std::memory_order_relaxed);
      reply = encode_error(e.what());
      line = "serve: request error: " + std::string(e.what());
    } catch (const std::exception& e) {
      // Anything else (bad_alloc, a library throw) must not take the
      // daemon down either -- one request, one reply, always.
      errors_.fetch_add(1, std::memory_order_relaxed);
      reply = encode_error(std::string("internal error: ") + e.what());
      line = std::string("serve: internal error: ") + e.what();
    }
    // Log BEFORE replying: a client that has its reply in hand (or a
    // test or smoke script synchronized on it) must be able to rely on
    // the request's log line having been written already.
    log_line(line);
    write_reply(*job->conn, job->seq, reply);
    job->conn->outstanding.fetch_sub(1, std::memory_order_release);
  }
}

DaemonStats Server::daemon_stats() const {
  ServeStats serve = stats();
  api::SessionStats session = session_.stats();
  DaemonStats d;
  d.connections = serve.connections;
  d.active_connections = serve.active_connections;
  d.refused_connections = serve.refused_connections;
  d.idle_reaped = serve.idle_reaped;
  d.requests = serve.requests;
  d.errors = serve.errors;
  d.overflows = serve.overflows;
  d.hits = session.hits;
  d.disk_hits = session.disk_hits;
  d.executions = session.executions;
  d.entries = session.entries;
  return d;
}

void Server::write_reply(Conn& conn, std::uint64_t seq,
                         const std::string& payload) {
  std::unique_lock<std::mutex> lock(conn.reply_mu);
  conn.reply_cv.wait(lock, [&] { return conn.next_reply == seq; });
  try {
    util::send_frame(conn.sock, payload);
  } catch (const Error&) {
    // The client hung up before reading its reply; its loss alone.
  }
  ++conn.next_reply;
  conn.reply_cv.notify_all();
}

}  // namespace rchls::serve
