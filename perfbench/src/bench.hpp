// The repository benchmark: shared types of main.cpp and its
// workloads (perfbench/README.md describes the workloads and metrics).
//
// A run is: set up the workload several times (setup_s is the median),
// run one measured phase (plus, with --trace 1, a second, traced phase),
// then check every output and re-run the independent oracles, untimed.
// End-to-end timings are scaled by a host-speed yardstick timed
// throughout the run. The benchmark only calls public functions of the
// rchls modules; the per-layer numbers come from spans it records around
// those calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/request.hpp"
#include "api/result.hpp"
#include "parallel/config.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "workload/corpus.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace rchls;

// ------------------------------------------------------------- options

struct Options {
  std::string workload;
  /// Replay seed: case order, client interleaving, oracle row samples.
  std::uint64_t seed = 1;
  /// The `rchls gen` corpus the workloads replay.
  std::uint64_t corpus_seed = 2026;
  std::size_t corpus_count = 240;
  /// Engine worker count (parallel::Config); 0 = the CLI default, the
  /// hardware concurrency.
  std::size_t jobs = 0;
  double seconds = 10.0;
  bool trace = false;
  fs::path manifest;  ///< report digests of the default corpus
  fs::path work_dir;  ///< scratch space, removed at exit
  fs::path corpus_dir() const { return work_dir / "corpus"; }
  fs::path out_dir;   ///< result record and Chrome trace
};

// -------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Process CPU time (user + system), seconds.
double process_cpu_seconds();

/// Releases freed heap to the system and restarts the kernel's
/// resident-set high-water mark (/proc/self/clear_refs), so that
/// peak_rss_mib() reads the peak from here on, not from set-up. Returns
/// false when the kernel refuses; the mark is then the process's.
bool reset_peak_rss();

/// Resident-set high-water mark (VmHWM of /proc/self/status), MiB.
double peak_rss_mib();

// ------------------------------------------------------------ yardstick

/// One yardstick burst: when it ended and how long each part took.
struct YardstickSample {
  std::int64_t at_ns = 0;
  /// In-process work: allocation, string building and hashing, hash-map
  /// and ordered-map updates, sorting, block copies.
  double cpu_ms = 0.0;
  /// One-byte round trips between two threads over a socket pair.
  double wake_ms = 0.0;
};

/// The host-speed yardstick. On a few vCPUs of a machine that other
/// tenants load too, speed changes by up to ~1.6x from one minute to the
/// next, so raw timings of the same code differ that much between runs.
/// Bursts of fixed work run between operations throughout a run, and
/// every timing is scaled by how fast the bursts around it ran
/// (host_slowdown). The bursts use the standard library and POSIX only,
/// so no change to rchls moves them.
class Yardstick {
 public:
  /// Runs one burst and records it.
  void burst();
  /// Runs a burst when `every_ns` have passed since the last one; returns
  /// the time spent, so callers can leave it out of their windows.
  std::int64_t maybe_burst(std::int64_t every_ns);
  const std::vector<YardstickSample>& samples() const { return samples_; }

 private:
  std::vector<YardstickSample> samples_;
  std::int64_t last_ns_ = 0;
};

Yardstick& yardstick();

/// How often the measured phases run a yardstick burst.
inline constexpr std::int64_t kYardstickEveryNs = 250'000'000;

/// Yardstick part times of the reference host (a 4-vCPU Xeon VM on a
/// shared host, Release build): the medians over its runs.
inline constexpr double kReferenceCpuMs = 4.0;
inline constexpr double kReferenceWakeMs = 2.0;

/// How much slower than the reference host this one ran around `at_ns`:
/// over the `near` bursts nearest to it (every burst of the run when
/// `near` is 0), the median of the cpu part plus, with `wake`, the wake
/// part, over the same sum on the reference host. 1 when there are no
/// bursts.
double host_slowdown(std::int64_t at_ns, bool wake, std::size_t near);

// -------------------------------------------------------------- tracing

/// One recorded span: a call into a layer, with the span that caused it
/// and the operation (corpus case or daemon round trip) it served.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< 0 = none
  std::uint32_t tid = 0;
};

/// In-memory span recorder (one per process, see tracer()). Spans are
/// buffered per thread and only read after the recording threads have
/// been joined; nothing is written until the run ends.
class Tracer {
 public:
  /// RAII span: records [construction, destruction) when tracing is on.
  /// `op` 0 inherits the enclosing span's operation.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t op_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t saved_span_ = 0;
    std::uint64_t saved_op_ = 0;
    std::int64_t start_ns_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Toggled between phases only, never while threads record.
  void set_enabled(bool on) { enabled_ = on; }

  Scope span(const char* name, std::uint64_t op = 0) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  /// Records an already-timed span under the current parent.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  /// Every span so far, all threads merged (callers join threads first).
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON.
  void write_chrome(const fs::path& path) const;

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();
  void push(Span s);

  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer& tracer();

/// Call count and total time of the spans with one name.
struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
};

/// Sums the spans recorded at or after `since_ns`, by name.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans,
                                             std::int64_t since_ns);

// ------------------------------------------------------------ executor

/// An api::Executor that hands every request to one callback -- the
/// benchmark's hook on the Executor seam. It times engine executions
/// (timing_executor), forwards to a daemon, or answers with results
/// already known so the requests scenario::run builds can be captured.
class CallbackExecutor final : public api::Executor {
 public:
  using Fn = std::function<api::Result(const api::Request&)>;
  explicit CallbackExecutor(Fn fn) : fn_(std::move(fn)) {}

  api::FindDesignResult run(const api::FindDesignRequest& r) override;
  api::SweepResult run(const api::SweepRequest& r) override;
  api::GridResult run(const api::GridRequest& r) override;
  api::InjectResult run(const api::InjectRequest& r) override;
  api::RankGatesResult run(const api::RankGatesRequest& r) override;
  api::StaResult run(const api::StaRequest& r) override;

 private:
  Fn fn_;
};

/// One sta request executed while tracing, for the stage re-runs.
struct StaExecution {
  std::size_t case_index = 0;
  api::StaRequest request;
};

/// The timing decorator: a LocalExecutor whose runs are recorded as
/// spans named by request kind (hls.find_design ... sta.request). While
/// tracing, sta requests are kept in `log`, tagged with `*current_case`.
std::shared_ptr<api::Executor> timing_executor(
    std::vector<StaExecution>* log, const std::size_t* current_case);

/// The requests scenario::run builds for `scn`, captured at the Executor
/// seam without executing: each is answered from `known` in order.
std::vector<api::Request> capture_requests(
    const scenario::Scenario& scn, const std::vector<api::Result>& known);

// -------------------------------------------------------------- corpus

/// The corpus the workloads replay: its files are written once per run,
/// untimed, with workload::write_corpus (the `rchls gen` path) -- they
/// are the workload's input -- and each set-up generates the case list
/// again.
struct Corpus {
  fs::path dir;
  std::vector<workload::CorpusCase> cases;
  fs::path scn_path(std::size_t i) const {
    return dir / cases[i].scn_filename;
  }
};

Corpus load_corpus(const Options& opts);

/// Per-case report digests recorded for one (corpus seed, count).
struct Manifest {
  std::uint64_t corpus_seed = 0;
  std::size_t corpus_count = 0;
  std::vector<std::string> digests;  ///< by case index
};

/// Loads `path` when it exists and matches the options' corpus; an
/// empty manifest otherwise (no digests to check).
Manifest load_manifest(const Options& opts);

/// Report digest: 16-hex FNV-1a of scenario::report::to_json.
std::string report_digest(const std::string& report_json);

// -------------------------------------------------------------- checks

/// Output-check tallies of the untimed phase after measuring.
struct Checks {
  std::uint64_t manifest_checked = 0;
  std::uint64_t cross_path_checked = 0;
  std::uint64_t oracle_inject = 0;      ///< reference campaigns re-run
  std::uint64_t oracle_gate_rows = 0;   ///< sampled rows re-run per gate
  std::vector<std::string> failures;

  void fail(std::string what) {
    if (failures.size() < 20) failures.push_back(std::move(what));
    else if (failures.size() == 20) failures.push_back("...");
  }
};

/// Independent oracles over one case's results (see checks.cpp): inject
/// campaigns against ser::inject_campaign_reference, and a seeded
/// sample of rank_gates / sta rows against ser::inject_gate.
void run_oracles(const scenario::Scenario& scn,
                 const scenario::RunReport& report, std::uint64_t sample_seed,
                 const std::string& case_name, Checks& checks);

/// Tolerance on sta.stage_coverage: the five stage spans must sum to
/// this share of the same request re-run through the Executor seam just
/// before them. (The measured phase's sta.request_ms ran among other
/// operations at another moment, so it is not the yardstick.) The
/// request also builds its result rows, and both sides carry timing
/// noise.
inline constexpr double kStageCoverageMin = 0.8;
inline constexpr double kStageCoverageMax = 1.2;

/// What rerun_sta_stages measured besides its spans.
struct StageRerun {
  double gate_trials = 0.0;      ///< sum of logic gates x trials
  std::int64_t request_ns = 0;   ///< the whole requests, re-run
};

/// For each distinct sta request: re-runs the request through
/// api::LocalExecutor (span sta.request.rerun), then its five stages
/// through their public functions (spans rtl.elaborate,
/// netlist.topology, sta.analyze, ser.sensitivity, sta.join).
StageRerun rerun_sta_stages(const std::vector<StaExecution>& log);

// ------------------------------------------------------------- results

/// One metric as printed: value with unit. Span-timed layers also
/// carry their call count and total (in the same unit).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t calls = -1;  ///< -1 = not a span-timed layer
  double total = 0.0;
};

/// The measured phase's raw record (begin_phase / end_phase fill the
/// process counters around it).
struct Phase {
  std::vector<double> latencies_ms;
  std::vector<std::int64_t> done_ns;  ///< when each latency sample ended
  /// Completed operations per second of each window of the phase (a
  /// corpus pass, a serve round); throughput_rps is their median.
  std::vector<double> window_rps;
  std::vector<std::int64_t> window_mid_ns;  ///< middle of each window
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  parallel::PoolStats pool_before;
  parallel::PoolStats pool_after;
  double peak_rss_mib = 0.0;
  bool rss_reset = false;  ///< peak_rss_mib is this phase's own peak
  std::int64_t start_ns = 0;  ///< spans at or after this belong here
};

Phase begin_phase();
void end_phase(Phase& ph);

/// Operations a phase must reach so that `tail_percentile` has 10
/// samples beyond it.
inline std::size_t sample_floor(double tail_percentile) {
  return static_cast<std::size_t>(10.0 / (1.0 - tail_percentile / 100.0) +
                                  0.5);
}

/// The workload interface main.cpp runs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Tail percentile; every phase runs to its sample_floor().
  virtual double tail_percentile() const = 0;
  /// Set-ups per run; setup_s is their median.
  virtual std::size_t setup_repeats() const = 0;
  /// Whether the engines (and so parallel's pool) do the work: the
  /// traced run then measures once more at the CLI default jobs.
  virtual bool runs_engines() const { return false; }
  /// Whether an operation is a daemon round trip, whose cost includes
  /// waking other threads: its host_slowdown then counts the wake part.
  virtual bool wakes() const { return false; }
  /// The bursts host_slowdown takes around each timing of a measured
  /// phase (0: every burst of the run).
  virtual std::size_t yardstick_near() const { return 5; }
  /// Timed by main.cpp; each call replaces the previous set-up.
  virtual void setup(std::size_t repeat) = 0;
  /// One measured phase. Spans are recorded when tracer() is enabled.
  virtual Phase measure() = 0;
  /// Untimed output checks and oracles after measuring.
  virtual void check(Checks& checks) = 0;
  /// Trace mode: layer probes and counters of the traced phase.
  virtual void layers(const Phase& traced, std::vector<Metric>& out,
                      Checks& checks) = 0;
};

std::unique_ptr<Workload> make_corpus_cold(const Options& opts);
std::unique_ptr<Workload> make_replay_warm(const Options& opts);
std::unique_ptr<Workload> make_serve_warm(const Options& opts);

/// Seeded permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed);

/// The tracing-probe helpers the corpus workloads share: per distinct
/// case, time api::key_of and the disk-cache and wire calls the
/// session makes, on the same requests and results.
struct ProbeInput {
  api::Request request;
  api::Result result;
};
void probe_disk_layers(const std::vector<ProbeInput>& inputs,
                       const fs::path& cache_dir, bool expect_hits,
                       std::vector<Metric>& out, Checks& checks);

/// Appends the executor-seam and sta-stage metrics of a traced phase.
void engine_layer_metrics(const Phase& traced,
                          const std::vector<StaExecution>& sta_log,
                          std::vector<Metric>& out, Checks& checks);

/// Appends `name` as the mean span time of `layer` in `unit` (us|ms).
void add_layer(std::vector<Metric>& out, const std::string& name,
               const LayerTime& layer, const std::string& unit);

}  // namespace perfbench
