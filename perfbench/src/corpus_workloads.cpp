// corpus_cold and replay_warm: the CLI's `rchls run` path
// (scenario::parse_file -> scenario::run -> scenario::report::to_json)
// over a generated corpus, cold and disk-warm. One caller, closed loop.
#include "api/session.hpp"
#include "bench.hpp"
#include "scenario/parse.hpp"
#include "scenario/report.hpp"
#include "util/error.hpp"

namespace perfbench {

Phase begin_phase() {
  Phase ph;
  ph.rss_reset = reset_peak_rss();
  ph.start_ns = now_ns();
  ph.cpu_s = process_cpu_seconds();
  ph.pool_before = parallel::pool_stats();
  return ph;
}

void end_phase(Phase& ph) {
  ph.wall_s = static_cast<double>(now_ns() - ph.start_ns) / 1e9;
  ph.cpu_s = process_cpu_seconds() - ph.cpu_s;
  ph.pool_after = parallel::pool_stats();
  ph.peak_rss_mib = peak_rss_mib();
}

namespace {

// What every corpus workload keeps per case: the first report it
// produced (reference for every later one) and its typed form.
struct CaseRecord {
  std::string report;
  scenario::RunReport typed;
  bool seen = false;
};

/// The shared loop of both corpus workloads: whole shuffled passes over
/// the corpus until the run time and the sample floor are both reached,
/// so every phase replays the same mix.
class CorpusWorkload : public Workload {
 public:
  explicit CorpusWorkload(const Options& opts)
      : opts_(opts), manifest_(load_manifest(opts)) {}

  Phase measure() override {
    Phase ph = begin_phase();
    report_bytes_ = 0;
    executions_ = disk_hits_ = disk_corrupt_ = 0;
    const std::size_t floor = sample_floor(tail_percentile());
    do {
      std::int64_t pass_start = now_ns();
      std::uint64_t ok_before = ph.attempted - ph.failed;
      std::int64_t yardstick_ns = 0;
      begin_pass();
      for (std::size_t idx : shuffled(corpus_.cases.size(),
                                      opts_.seed * 1000003 + passes_)) {
        yardstick_ns += yardstick().maybe_burst(kYardstickEveryNs);
        run_one(idx, ph);
      }
      end_pass();
      ++passes_;
      std::int64_t pass_end = now_ns();
      ph.window_rps.push_back(
          static_cast<double>(ph.attempted - ph.failed - ok_before) /
          (static_cast<double>(pass_end - pass_start - yardstick_ns) / 1e9));
      ph.window_mid_ns.push_back(pass_start + (pass_end - pass_start) / 2);
    } while (static_cast<double>(now_ns() - ph.start_ns) / 1e9 <
                 opts_.seconds ||
             ph.latencies_ms.size() < floor);
    end_phase(ph);
    return ph;
  }

 protected:
  /// One operation: parse, run and render one case.
  virtual std::string run_case(std::size_t idx, scenario::RunReport& rep) = 0;
  virtual void begin_pass() {}
  virtual void end_pass() {}

  void run_one(std::size_t idx, Phase& ph) {
    Tracer& t = tracer();
    std::int64_t start = now_ns();
    std::string report;
    scenario::RunReport typed;
    bool ok = true;
    {
      auto op = t.span(op_name(), ++ops_);
      try {
        report = run_case(idx, typed);
      } catch (const std::exception& e) {
        ok = false;
        note_failure(corpus_.cases[idx].name + ": " + e.what());
      }
    }
    std::int64_t end = now_ns();
    ph.latencies_ms.push_back(ns_to_ms(end - start));
    ph.done_ns.push_back(end);
    ++ph.attempted;
    report_bytes_ += report.size();
    if (ok) ok = verify(idx, report, typed);
    if (!ok) ++ph.failed;
  }

  virtual const char* op_name() const = 0;

  // A report must match the first one this run produced for the case
  // and, for the recorded corpus, the manifest digest.
  bool verify(std::size_t idx, std::string& report,
              scenario::RunReport& typed) {
    CaseRecord& rec = records_[idx];
    if (!rec.seen) {
      rec.seen = true;
      rec.report = std::move(report);
      rec.typed = std::move(typed);
      if (!manifest_.digests.empty() &&
          report_digest(rec.report) != manifest_.digests[idx]) {
        note_failure(corpus_.cases[idx].name +
                     ": report differs from the manifest digest");
        return false;
      }
      return true;
    }
    ++cross_checked_;
    if (report != rec.report) {
      note_failure(corpus_.cases[idx].name +
                   ": report differs from this run's first report");
      return false;
    }
    return true;
  }

  void note_failure(std::string what) { pending_.push_back(std::move(what)); }

  void tally(const api::Session& s) {
    executions_ += s.executions();
    disk_hits_ += s.disk_stats().hits;
    disk_corrupt_ += s.disk_stats().corrupt;
  }

  // Checks common to both workloads: failures noted while measuring,
  // and the oracles over each case's first typed report.
  void check_records(Checks& checks) {
    for (auto& f : pending_) checks.fail(f);
    checks.cross_path_checked += cross_checked_;
    if (!manifest_.digests.empty()) checks.manifest_checked += records_.size();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (!records_[i].seen) continue;
      scenario::Scenario scn = scenario::parse_file(corpus_.scn_path(i));
      run_oracles(scn, records_[i].typed, opts_.seed * 7919 + i,
                  corpus_.cases[i].name, checks);
    }
  }

  // The traced phase's scenario-layer spans and session counters.
  void scenario_layers(const Phase& traced, std::vector<Metric>& out) {
    auto lt = layer_times(tracer().spans(), traced.start_ns);
    add_layer(out, "scenario.parse_us", lt["scenario.parse"], "us");
    add_layer(out, "scenario.report_us", lt["scenario.report"], "us");
    out.push_back({"scenario.report_bytes",
                   traced.attempted ? static_cast<double>(report_bytes_) /
                                          static_cast<double>(traced.attempted)
                                    : 0.0,
                   "bytes"});
    add_layer(out, "api.session.open_us", lt["api.session.open"], "us");
    out.push_back({"api.executions", static_cast<double>(executions_), "count"});
    out.push_back(
        {"api.disk_cache.hits", static_cast<double>(disk_hits_), "count"});
    out.push_back({"api.disk_cache.corrupt", static_cast<double>(disk_corrupt_),
                   "count"});
  }

  // (request, result) of every case, captured at the Executor seam from
  // the typed reports -- the inputs of the disk-layer probes.
  std::vector<ProbeInput> probe_inputs() {
    std::vector<ProbeInput> inputs;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const CaseRecord& rec = records_[i];
      if (!rec.seen) continue;
      scenario::Scenario scn = scenario::parse_file(corpus_.scn_path(i));
      std::vector<api::Result> known;
      for (const auto& a : rec.typed.actions) known.push_back(a.data);
      std::vector<api::Request> reqs = capture_requests(scn, known);
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        inputs.push_back({std::move(reqs[k]), known[k]});
      }
    }
    return inputs;
  }

  void new_corpus() {
    corpus_ = load_corpus(opts_);
    records_.assign(corpus_.cases.size(), CaseRecord{});
  }

  const Options& opts_;
  Manifest manifest_;
  Corpus corpus_;
  std::vector<CaseRecord> records_;
  std::vector<std::string> pending_;
  std::uint64_t ops_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t cross_checked_ = 0;
  std::uint64_t report_bytes_ = 0;
  std::uint64_t executions_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t disk_corrupt_ = 0;
};

// ---------------------------------------------------------- corpus_cold

class CorpusCold final : public CorpusWorkload {
 public:
  using CorpusWorkload::CorpusWorkload;

  double tail_percentile() const override { return 98.0; }
  // A set-up costs a few ms, so it takes many for a steady median.
  std::size_t setup_repeats() const override { return 50; }
  bool runs_engines() const override { return true; }

  void setup(std::size_t) override {
    new_corpus();
    if (opts_.trace) {
      executor_ = timing_executor(&sta_log_, &current_case_);
    }
    open_session();
  }

  void check(Checks& checks) override {
    check_records(checks);
    // Cross-path: a cold pass that also writes a disk cache, as
    // `rchls run --cache-dir` does, must give the measured reports, and
    // the disk-warm path must replay that cache to them, executing
    // nothing.
    fs::path cache = opts_.work_dir / "check-cache";
    api::SessionOptions so;
    so.cache_dir = cache.string();
    api::Session cold(so);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      scenario::Scenario scn = scenario::parse_file(corpus_.scn_path(i));
      ++checks.cross_path_checked;
      if (scenario::report::to_json(scenario::run(scn, cold)) !=
          records_[i].report) {
        checks.fail(corpus_.cases[i].name +
                    ": cold run with a disk cache differs");
      }
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
      api::Session warm(so);
      scenario::Scenario scn = scenario::parse_file(corpus_.scn_path(i));
      std::string report =
          scenario::report::to_json(scenario::run(scn, warm));
      ++checks.cross_path_checked;
      if (report != records_[i].report || warm.executions() != 0) {
        checks.fail(corpus_.cases[i].name +
                    ": disk-warm replay differs from the cold report");
      }
    }
  }

  void layers(const Phase& traced, std::vector<Metric>& out,
              Checks& checks) override {
    scenario_layers(traced, out);
    fs::path probe_dir = opts_.work_dir / "probe-cache";
    fs::remove_all(probe_dir);
    probe_disk_layers(probe_inputs(), probe_dir, false, out, checks);
    engine_layer_metrics(traced, sta_log_, out, checks);
  }

 private:
  const char* op_name() const override { return "corpus_cold.case"; }

  // Every pass starts on an empty session, as a first `rchls run` does.
  // It has no disk cache: writing one tied this workload's figures to
  // the shared disk's stalls, which nothing in the run can measure (see
  // README.md, "Host-speed yardstick"); check() covers that path.
  void open_session() {
    api::SessionOptions so;
    so.executor = executor_;
    auto s = tracer().span("api.session.open");
    session_ = std::make_unique<api::Session>(so);
  }

  void begin_pass() override {
    if (!session_) open_session();
  }

  void end_pass() override {
    tally(*session_);
    session_.reset();
  }

  std::string run_case(std::size_t idx, scenario::RunReport& rep) override {
    Tracer& t = tracer();
    current_case_ = idx;
    scenario::Scenario scn;
    {
      auto s = t.span("scenario.parse");
      scn = scenario::parse_file(corpus_.scn_path(idx));
    }
    {
      auto s = t.span("scenario.run");
      rep = scenario::run(scn, *session_);
    }
    auto s = t.span("scenario.report");
    return scenario::report::to_json(rep);
  }

  std::shared_ptr<api::Executor> executor_;  ///< null = LocalExecutor
  std::unique_ptr<api::Session> session_;
  std::size_t current_case_ = 0;
  std::vector<StaExecution> sta_log_;
};

// ---------------------------------------------------------- replay_warm

class ReplayWarm final : public CorpusWorkload {
 public:
  using CorpusWorkload::CorpusWorkload;

  double tail_percentile() const override { return 99.0; }
  std::size_t setup_repeats() const override { return 3; }

  // The priming pass is the cold `rchls run --cache-dir` that fills the
  // cache; its reports are the references the replays must match.
  void setup(std::size_t repeat) override {
    new_corpus();
    cache_dir_ = opts_.work_dir / ("warm-cache-" + std::to_string(repeat));
    api::SessionOptions so;
    so.cache_dir = cache_dir_.string();
    api::Session session(so);
    primed_.assign(corpus_.cases.size(), std::string());
    for (std::size_t i = 0; i < corpus_.cases.size(); ++i) {
      scenario::Scenario scn = scenario::parse_file(corpus_.scn_path(i));
      primed_[i] = scenario::report::to_json(scenario::run(scn, session));
    }
  }

  void check(Checks& checks) override {
    // The warm reports were held to the first warm report of each case
    // while measuring; that one must equal the cold priming report, which
    // the manifest pins for the recorded corpus.
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (!records_[i].seen) continue;
      ++checks.cross_path_checked;
      if (records_[i].report != primed_[i]) {
        checks.fail(corpus_.cases[i].name +
                    ": warm report differs from the cold priming report");
      }
    }
    check_records(checks);
  }

  void layers(const Phase& traced, std::vector<Metric>& out,
              Checks& checks) override {
    scenario_layers(traced, out);
    probe_disk_layers(probe_inputs(), cache_dir_, true, out, checks);
    engine_layer_metrics(traced, {}, out, checks);
  }

 private:
  const char* op_name() const override { return "replay_warm.case"; }

  // A fresh session per case: each is a separate `rchls run` invocation
  // over the warm cache directory.
  std::string run_case(std::size_t idx, scenario::RunReport& rep) override {
    Tracer& t = tracer();
    api::SessionOptions so;
    so.cache_dir = cache_dir_.string();
    std::optional<api::Session> session;
    {
      auto s = t.span("api.session.open");
      session.emplace(so);
    }
    scenario::Scenario scn;
    {
      auto s = t.span("scenario.parse");
      scn = scenario::parse_file(corpus_.scn_path(idx));
    }
    {
      auto s = t.span("scenario.run");
      rep = scenario::run(scn, *session);
    }
    std::string report;
    {
      auto s = t.span("scenario.report");
      report = scenario::report::to_json(rep);
    }
    tally(*session);
    if (session->executions() != 0) {
      throw Error("warm replay executed a request");
    }
    return report;
  }

  fs::path cache_dir_;
  std::vector<std::string> primed_;
};

}  // namespace

std::unique_ptr<Workload> make_corpus_cold(const Options& opts) {
  return std::make_unique<CorpusCold>(opts);
}

std::unique_ptr<Workload> make_replay_warm(const Options& opts) {
  return std::make_unique<ReplayWarm>(opts);
}

}  // namespace perfbench
