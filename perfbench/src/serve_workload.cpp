// serve_warm: an in-process `rchls serve` daemon (serve::Server at its
// CLI defaults, unix socket) primed with the corpus's requests, then
// replayed by nproc serve::Client connections as pre-encoded envelopes
// (call_raw, as `rchls request` sends them). Closed loop: each client
// waits for its reply before sending the next request.
#include <latch>
#include <thread>

#include "api/cache.hpp"
#include "api/session.hpp"
#include "api/shared_session.hpp"
#include "api/wire.hpp"
#include "bench.hpp"
#include "scenario/parse.hpp"
#include "scenario/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

/// The measured phase's rounds, each on fresh connections.
constexpr std::size_t kServeRounds = 10;
/// Yardstick bursts before each round.
constexpr int kBurstsPerRound = 4;

class ServeWarm final : public Workload {
 public:
  explicit ServeWarm(const Options& opts)
      : opts_(opts), manifest_(load_manifest(opts)) {}

  double tail_percentile() const override { return 99.9; }
  std::size_t setup_repeats() const override { return 3; }
  bool wakes() const override { return true; }
  // The bursts come in groups between rounds, and a group's median is
  // noisier than the rounds it would scale: over eight runs the scaled
  // latency_p50_ms spread 0.065 of its median by the run's median burst
  // and 0.185 by the 5 nearest.
  std::size_t yardstick_near() const override { return 0; }

  void setup(std::size_t) override {
    server_.reset();
    corpus_ = load_corpus(opts_);
    // Relative to the working directory: unix socket paths are short.
    socket_ = (opts_.work_dir / "serve.sock").string();
    serve::ServerOptions so;  // `rchls serve` defaults otherwise
    so.socket_path = socket_;
    server_ = std::make_unique<serve::Server>(so);

    // Priming: every case runs through the daemon once, via a session
    // whose executor forwards each request scenario::run builds.
    serve::Client client = serve::Client::connect_unix(socket_);
    requests_.clear();
    payloads_.clear();
    replies_.clear();
    results_.clear();
    scenarios_.clear();
    reports_.clear();
    auto forward = [&](const api::Request& req) {
      std::string payload = api::wire::encode(req);
      std::string reply = client.call_raw(payload);
      serve::Reply r = serve::decode_reply(reply);
      if (!r.ok()) throw Error("serve: " + r.error);
      requests_.push_back(req);
      payloads_.push_back(std::move(payload));
      replies_.push_back(std::move(reply));
      results_.push_back(*r.result);
      return *r.result;
    };
    api::SessionOptions sopts;
    sopts.enable_cache = false;
    sopts.executor = std::make_shared<CallbackExecutor>(forward);
    api::Session session(sopts);
    for (std::size_t i = 0; i < corpus_.cases.size(); ++i) {
      scenarios_.push_back(scenario::parse_file(corpus_.scn_path(i)));
      reports_.push_back(scenario::run(scenarios_.back(), session));
    }
  }

  Phase measure() override {
    const std::size_t clients = parallel::hardware_jobs();
    const std::size_t floor = sample_floor(tail_percentile());
    serve::ServeStats stats0 = server_->stats();
    api::SharedSessionStats session0 = server_->session_stats();

    // Rounds of fresh connections (and so fresh server reader threads);
    // throughput_rps is the median round, so one slow stretch of a shared
    // host does not set the run's figure.
    Phase ph = begin_phase();
    call_payload_.clear();
    for (std::size_t r = 0; r < kServeRounds; ++r) {
      // The clients keep every vCPU busy, so the yardstick runs between
      // rounds.
      for (int b = 0; b < kBurstsPerRound; ++b) yardstick().burst();
      run_round(clients, opts_.seconds / static_cast<double>(kServeRounds),
                (floor + kServeRounds - 1) / kServeRounds, r, ph);
    }
    end_phase(ph);

    serve::ServeStats stats1 = server_->stats();
    api::SharedSessionStats session1 = server_->session_stats();
    executions_ = session1.executions - session0.executions;
    hits_ = session1.hits - session0.hits;
    errors_ = stats1.errors - stats0.errors;
    overflows_ = stats1.overflows - stats0.overflows;
    if (executions_ != 0) {
      pending_.push_back("serve_warm executed " + std::to_string(executions_) +
                         " requests while measuring");
    }
    return ph;
  }

  // One round: `clients` connections replay for `seconds` and until
  // `floor` calls completed; their samples are appended to `ph`.
  void run_round(std::size_t clients, double seconds, std::size_t floor,
                 std::size_t round, Phase& ph) {
    std::vector<ClientRecord> per(clients);
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::int64_t> deadline{0};
    std::latch ready(static_cast<std::ptrdiff_t>(clients + 1));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientRecord& me = per[c];
        std::optional<serve::Client> client;
        try {
          client.emplace(serve::Client::connect_unix(socket_));
        } catch (const std::exception& e) {
          ++me.attempted;
          ++me.failed;
          me.error = e.what();
        }
        ready.arrive_and_wait();  // every client arrives, connected or not
        if (!client) return;
        try {
          replay(*client, round * clients + c, me, done, deadline, floor);
        } catch (const std::exception& e) {
          ++me.failed;  // the attempt that threw; this client stops
          me.error = e.what();
        }
      });
    }
    deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    ready.arrive_and_wait();
    std::int64_t start = now_ns();
    for (auto& t : threads) t.join();
    double wall = static_cast<double>(now_ns() - start) / 1e9;

    std::uint64_t completed = 0;
    for (auto& me : per) {
      completed += me.attempted - me.failed;
      ph.latencies_ms.insert(ph.latencies_ms.end(), me.latencies_ms.begin(),
                             me.latencies_ms.end());
      call_payload_.insert(call_payload_.end(), me.payload.begin(),
                           me.payload.end());
      ph.done_ns.insert(ph.done_ns.end(), me.done_ns.begin(),
                        me.done_ns.end());
      ph.attempted += me.attempted;
      ph.failed += me.failed;
      if (!me.error.empty()) pending_.push_back("client: " + me.error);
    }
    ph.window_rps.push_back(static_cast<double>(completed) / wall);
    ph.window_mid_ns.push_back(start + (now_ns() - start) / 2);
  }

  void check(Checks& checks) override {
    for (auto& f : pending_) checks.fail(f);
    // Replies are byte-identical to a local Session's result encoding.
    api::Session local;
    for (std::size_t k = 0; k < requests_.size(); ++k) {
      ++checks.cross_path_checked;
      if (api::wire::encode(local.run(requests_[k])) != replies_[k]) {
        checks.fail("reply " + std::to_string(k) +
                    " differs from the local session's result");
      }
    }
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      const std::string& name = corpus_.cases[i].name;
      if (!manifest_.digests.empty()) {
        ++checks.manifest_checked;
        if (report_digest(scenario::report::to_json(reports_[i])) !=
            manifest_.digests[i]) {
          checks.fail(name + ": report differs from the manifest digest");
        }
      }
      run_oracles(scenarios_[i], reports_[i], opts_.seed * 7919 + i, name,
                  checks);
    }
  }

  void layers(const Phase& traced, std::vector<Metric>& out,
              Checks& checks) override {
    // Decode, hit and encode re-timed single-threaded on the replayed
    // payloads; the rest of each round trip is transport.
    Tracer& t = tracer();
    std::size_t current = 0;
    api::SessionOptions so;
    so.executor = std::make_shared<CallbackExecutor>(
        [&](const api::Request&) { return results_[current]; });
    api::SharedSession shared(so);
    for (current = 0; current < requests_.size(); ++current) {
      shared.run(requests_[current]);
    }
    std::vector<std::int64_t> server_ns(payloads_.size(), 0);
    double request_bytes = 0.0;
    double reply_bytes = 0.0;
    std::int64_t since = now_ns();
    for (std::size_t k = 0; k < payloads_.size(); ++k) {
      auto op = t.span("probe.payload", 1 + k);
      std::int64_t t0 = now_ns();
      api::Request req = api::wire::decode_request(payloads_[k]);
      std::int64_t t1 = now_ns();
      api::RunSource source = api::RunSource::kExecuted;
      api::Result res = shared.run(req, &source);
      std::int64_t t2 = now_ns();
      std::string reply = api::wire::encode(res);
      std::int64_t t3 = now_ns();
      t.record("api.wire.decode_request", t0, t1);
      t.record("api.shared_session.hit", t1, t2);
      t.record("api.wire.encode_result", t2, t3);
      server_ns[k] = t3 - t0;
      {
        auto s = t.span("api.cache.key");
        api::key_of(req);
      }
      if (source != api::RunSource::kMemoryCache || reply != replies_[k]) {
        checks.fail("probe: payload " + std::to_string(k) +
                    " was not a byte-identical memory hit");
      }
      request_bytes += static_cast<double>(payloads_[k].size());
      reply_bytes += static_cast<double>(replies_[k].size());
    }
    auto lt = layer_times(t.spans(), since);
    auto phase = layer_times(t.spans(), traced.start_ns);
    double n = static_cast<double>(payloads_.size());
    add_layer(out, "api.cache.key_us", lt["api.cache.key"], "us");
    add_layer(out, "api.wire.decode_request_us", lt["api.wire.decode_request"],
              "us");
    out.push_back({"api.wire.request_bytes", request_bytes / n, "bytes"});
    out.push_back({"api.wire.reply_bytes", reply_bytes / n, "bytes"});
    add_layer(out, "api.shared_session.hit_us", lt["api.shared_session.hit"],
              "us");
    add_layer(out, "api.wire.encode_result_us", lt["api.wire.encode_result"],
              "us");
    // Transport: each traced round trip minus its payload's server-side
    // decode + hit + encode.
    const LayerTime& calls = phase["serve.call"];
    double server_total = 0.0;
    for (std::uint32_t k : call_payload_) {
      server_total += static_cast<double>(server_ns[k]);
    }
    LayerTime transport{calls.calls,
                        calls.total_ns - static_cast<std::int64_t>(server_total)};
    add_layer(out, "serve.transport_us", transport, "us");
    out.push_back({"api.executions", static_cast<double>(executions_), "count"});
    out.push_back({"api.shared_session.hits", static_cast<double>(hits_),
                   "count"});
    out.push_back({"serve.errors", static_cast<double>(errors_), "count"});
    out.push_back({"serve.overflows", static_cast<double>(overflows_), "count"});
    engine_layer_metrics(traced, {}, out, checks);
  }

 private:
  struct ClientRecord {
    std::vector<double> latencies_ms;
    std::vector<std::uint32_t> payload;  ///< payload index per call
    std::vector<std::int64_t> done_ns;  ///< when each call ended
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;
  };

  // One client's closed loop: seeded passes over every payload until the
  // deadline and the shared sample floor are both reached.
  void replay(serve::Client& client, std::size_t c, ClientRecord& me,
              std::atomic<std::uint64_t>& done,
              const std::atomic<std::int64_t>& deadline, std::size_t floor) {
    Tracer& t = tracer();
    const std::uint64_t op_base = (static_cast<std::uint64_t>(c) + 1) << 40;
    for (std::uint64_t pass = 0;; ++pass) {
      for (std::size_t k : shuffled(payloads_.size(),
                                    opts_.seed * 1000003 + c * 7907 + pass)) {
        if (now_ns() >= deadline.load(std::memory_order_relaxed) &&
            done.load(std::memory_order_relaxed) >= floor) {
          return;
        }
        ++me.attempted;
        std::int64_t start = now_ns();
        std::string reply;
        {
          auto s = t.span("serve.call", op_base + me.attempted);
          reply = client.call_raw(payloads_[k]);
        }
        std::int64_t end = now_ns();
        me.latencies_ms.push_back(ns_to_ms(end - start));
        me.done_ns.push_back(end);
        me.payload.push_back(static_cast<std::uint32_t>(k));
        done.fetch_add(1, std::memory_order_relaxed);
        // A wrong reply, an error envelope included, fails the call.
        if (reply != replies_[k]) ++me.failed;
      }
    }
  }

  const Options& opts_;
  Manifest manifest_;
  Corpus corpus_;
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  std::vector<api::Request> requests_;   ///< in priming order
  std::vector<std::string> payloads_;    ///< wire::encode(requests_[k])
  std::vector<std::string> replies_;     ///< the daemon's priming replies
  std::vector<api::Result> results_;     ///< replies_, decoded
  std::vector<scenario::Scenario> scenarios_;
  std::vector<scenario::RunReport> reports_;
  std::vector<std::uint32_t> call_payload_;  ///< per measured call
  std::vector<std::string> pending_;
  std::uint64_t executions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t overflows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_warm(const Options& opts) {
  return std::make_unique<ServeWarm>(opts);
}

}  // namespace perfbench
