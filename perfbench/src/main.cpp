// rchls_perfbench: the repository benchmark.
//
//   rchls_perfbench --workload corpus_cold|replay_warm|serve_warm
//                   [--seed N] [--seconds S] [--trace 0|1]
//                   [--corpus-seed N] [--corpus-count N] [--manifest FILE]
//                   [--work-dir DIR] [--out-dir DIR] [--jobs N]
//   rchls_perfbench --write-manifest FILE [--corpus-seed N] [--corpus-count N]
//
// Prints one line per metric, then, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer metrics. The full
// record (host, percentiles, call counts, checks) is written to
// <out-dir>/result-<workload>-seed<N>-trace<T>.json, and with --trace 1
// the spans to <out-dir>/trace-<workload>-seed<N>.json (Chrome
// trace-event JSON). Exit status is 0 whenever a result was printed.
//
// --jobs sets the engines' worker count (parallel::Config, 0 = the CLI
// default, the hardware concurrency). At 1, parallel regions run inline
// and never reach the pool, so the traced run of an engine workload
// measures once more at the CLI default for the parallel.* metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "api/session.hpp"
#include "bench.hpp"
#include "scenario/parse.hpp"
#include "scenario/report.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Every per-layer metric the traced run prints, with its unit; a layer
// a workload does not exercise reads 0 (with 0 calls).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"scenario.parse_us", "us"},
    {"scenario.report_us", "us"},
    {"scenario.report_bytes", "bytes"},
    {"api.cache.key_us", "us"},
    {"api.session.open_us", "us"},
    {"api.disk_cache.find_us", "us"},
    {"api.disk_cache.entry_bytes", "bytes"},
    {"api.disk_cache.store_us", "us"},
    {"api.wire.decode_result_us", "us"},
    {"api.wire.encode_result_us", "us"},
    {"api.wire.decode_request_us", "us"},
    {"api.wire.request_bytes", "bytes"},
    {"api.wire.reply_bytes", "bytes"},
    {"api.shared_session.hit_us", "us"},
    {"serve.transport_us", "us"},
    {"hls.find_design_ms", "ms"},
    {"hls.sweep_ms", "ms"},
    {"hls.grid_ms", "ms"},
    {"ser.inject_ms", "ms"},
    {"ser.rank_gates_ms", "ms"},
    {"sta.request_ms", "ms"},
    {"rtl.elaborate_ms", "ms"},
    {"netlist.topology_ms", "ms"},
    {"sta.analyze_ms", "ms"},
    {"ser.sensitivity_ms", "ms"},
    {"sta.join_ms", "ms"},
    {"sta.stage_coverage", "ratio"},
    {"ser.gate_trials_per_s", "1/s"},
    {"parallel.cores_busy", "cores"},
    {"parallel.wakeups_per_task", "ratio"},
    {"parallel.steals", "count"},
    {"parallel.speedup", "ratio"},
    {"api.executions", "count"},
    {"api.disk_cache.hits", "count"},
    {"api.disk_cache.corrupt", "count"},
    {"api.shared_session.hits", "count"},
    {"serve.errors", "count"},
    {"serve.overflows", "count"},
    {"trace.overhead_throughput_rps", "ops/s"},
    {"trace.overhead_latency_p50_ms", "ms"},
    {"trace.overhead_latency_tail_ms", "ms"},
};

// The end-to-end summary of one measured phase.
struct Summary {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
  std::size_t samples = 0;
  double peak_rss_mb = 0.0;
  bool rss_reset = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double failed_ratio = 0.0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// The workload's tail percentile when the phase reached its sample
// floor; otherwise the highest percentile with 10 samples beyond it.
double tail_percentile_for(double design, std::size_t n) {
  static const double kLadder[] = {99.99, 99.9, 99.5, 99.0, 98.0,
                                   95.0,  90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p <= design &&
        static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 50.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Yardstick bursts before each set-up and after the last, and the
/// bursts host_slowdown takes around each set-up.
constexpr int kBurstsAroundSetup = 3;
constexpr std::size_t kSetupNear = 5;

/// How much slower than the reference host the host ran at a moment;
/// timings are divided by it and rates multiplied (1 everywhere: raw).
using Slowdown = std::function<double(std::int64_t at_ns)>;

Summary summarize(const Phase& ph, double design_tail,
                  const Slowdown& slowdown) {
  Summary s;
  std::vector<double> sorted(ph.latencies_ms.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = ph.latencies_ms[i] / slowdown(ph.done_ns[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  s.samples = sorted.size();
  std::vector<double> windows(ph.window_rps.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    windows[i] = ph.window_rps[i] * slowdown(ph.window_mid_ns[i]);
  }
  s.throughput_rps = median(windows);
  s.p50_ms = percentile(sorted, 50.0);
  s.tail_percentile = tail_percentile_for(design_tail, sorted.size());
  s.tail_ms = percentile(sorted, s.tail_percentile);
  s.peak_rss_mb = ph.peak_rss_mib;
  s.rss_reset = ph.rss_reset;
  s.attempted = ph.attempted;
  s.failed = ph.failed;
  s.failed_ratio = ph.attempted ? static_cast<double>(ph.failed) /
                                      static_cast<double>(ph.attempted)
                                : 0.0;
  return s;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& msg) {
  throw Error(msg + "\nusage: rchls_perfbench --workload "
                    "corpus_cold|replay_warm|serve_warm [--seed N] "
                    "[--seconds S] [--trace 0|1] [--corpus-seed N] "
                    "[--corpus-count N] [--manifest FILE] [--work-dir DIR] "
                    "[--out-dir DIR] [--jobs N]\n"
                    "       rchls_perfbench --write-manifest FILE "
                    "[--corpus-seed N] [--corpus-count N]");
}

struct Args {
  Options opts;
  fs::path write_manifest;
  fs::path work_base = ".bench_build/perfbench-work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.opts.out_dir = ".bench_build/perfbench-out";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string v = argv[++i];
    auto number = [&]() -> std::uint64_t {
      std::size_t used = 0;
      std::uint64_t n = 0;
      try {
        n = std::stoull(v, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != v.size() || v.empty() || v[0] == '-') {
        usage("bad value for " + flag + ": " + v);
      }
      return n;
    };
    if (flag == "--workload") {
      a.opts.workload = v;
    } else if (flag == "--seed") {
      a.opts.seed = number();
    } else if (flag == "--seconds") {
      a.opts.seconds = std::stod(v);
      if (!(a.opts.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.opts.trace = v == "1";
    } else if (flag == "--corpus-seed") {
      a.opts.corpus_seed = number();
    } else if (flag == "--corpus-count") {
      a.opts.corpus_count = number();
      if (a.opts.corpus_count == 0) usage("--corpus-count must be >= 1");
    } else if (flag == "--manifest") {
      a.opts.manifest = v;
    } else if (flag == "--work-dir") {
      a.work_base = v;
    } else if (flag == "--out-dir") {
      a.opts.out_dir = v;
    } else if (flag == "--jobs") {
      a.opts.jobs = number();
    } else if (flag == "--write-manifest") {
      a.write_manifest = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.write_manifest.empty() && a.opts.workload != "corpus_cold" &&
      a.opts.workload != "replay_warm" && a.opts.workload != "serve_warm") {
    usage("unknown workload '" + a.opts.workload + "'");
  }
  std::string tag = a.write_manifest.empty() ? a.opts.workload : "manifest";
  a.opts.work_dir =
      a.work_base / (tag + "-" + std::to_string(static_cast<long>(getpid())));
  return a;
}

// Removes the run's scratch directory on every exit path.
struct WorkDir {
  fs::path path;
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

// Cold-runs the corpus (at the default jobs, then at jobs 1, which must
// agree) and writes its per-case report digests.
int write_manifest(const Args& a) {
  WorkDir work(a.opts.work_dir);
  workload::write_corpus({a.opts.corpus_seed, a.opts.corpus_count},
                         a.opts.corpus_dir());
  Corpus corpus = load_corpus(a.opts);
  std::vector<std::string> digests;
  for (std::size_t jobs : {std::size_t{0}, std::size_t{1}}) {
    api::SessionOptions so;
    so.jobs = jobs;
    api::Session session(so);
    for (std::size_t i = 0; i < corpus.cases.size(); ++i) {
      scenario::Scenario scn = scenario::parse_file(corpus.scn_path(i));
      std::string d = report_digest(
          scenario::report::to_json(scenario::run(scn, session)));
      if (jobs == 0) {
        digests.push_back(d);
      } else if (digests[i] != d) {
        throw Error(corpus.cases[i].name + ": report differs at jobs 1");
      }
    }
  }
  auto cases = json::Value::array();
  for (std::size_t i = 0; i < corpus.cases.size(); ++i) {
    cases.push(json::Value::object()
                   .set("name", corpus.cases[i].name)
                   .set("action", corpus.cases[i].action)
                   .set("report", digests[i]));
  }
  auto doc = json::Value::object();
  doc.set("format", "perfbench.manifest.v1")
      .set("digest", "fnv1a64 of scenario::report::to_json, 16 hex digits")
      .set("corpus_seed", std::to_string(a.opts.corpus_seed))
      .set("corpus_count", static_cast<std::uint64_t>(a.opts.corpus_count))
      .set("cases", std::move(cases));
  if (!write_file(a.write_manifest, doc.dump(2) + "\n")) {
    throw Error("cannot write " + a.write_manifest.string());
  }
  std::cout << "wrote " << a.write_manifest.string() << " ("
            << corpus.cases.size() << " cases)\n";
  return 0;
}

json::Value summary_json(const Summary& s) {
  return json::Value::object()
      .set("throughput_rps", s.throughput_rps)
      .set("latency_p50_ms", s.p50_ms)
      .set("latency_tail_ms", s.tail_ms)
      .set("tail_percentile", s.tail_percentile)
      .set("samples", static_cast<std::uint64_t>(s.samples))
      .set("peak_rss_mb", s.peak_rss_mb)
      .set("peak_rss_scope", s.rss_reset ? "phase" : "process")
      .set("failed_ratio", s.failed_ratio);
}

void print_summary(const Summary& s) {
  std::cout << "throughput_rps = " << fmt(s.throughput_rps) << " ops/s\n"
            << "latency_p50_ms = " << fmt(s.p50_ms) << " ms\n"
            << "latency_tail_ms = " << fmt(s.tail_ms) << " ms (p"
            << fmt(s.tail_percentile) << " of " << s.samples << " samples)\n"
            << "peak_rss_mb = " << fmt(s.peak_rss_mb) << " MiB ("
            << (s.rss_reset ? "phase" : "process") << " peak)\n"
            << "failed_ratio = " << fmt(s.failed_ratio) << " ratio ("
            << s.failed << " of " << s.attempted << ")\n";
}

// The parallel.* metrics: process CPU and pool counters over `ph`, and
// `speedup`, the pool phase's throughput over the measured phase's (0
// when there was no pool phase).
void pool_metrics(const Phase& ph, double speedup, std::vector<Metric>& out) {
  out.push_back({"parallel.cores_busy",
                 ph.wall_s > 0 ? ph.cpu_s / ph.wall_s : 0.0, "cores"});
  auto tasks = static_cast<double>(ph.pool_after.tasks_executed -
                                   ph.pool_before.tasks_executed);
  auto wakeups = static_cast<double>(ph.pool_after.idle_wakeups -
                                     ph.pool_before.idle_wakeups);
  out.push_back({"parallel.wakeups_per_task", tasks > 0 ? wakeups / tasks : 0.0,
                 "ratio"});
  out.push_back(
      {"parallel.steals",
       static_cast<double>(ph.pool_after.steals - ph.pool_before.steals),
       "count"});
  out.push_back({"parallel.speedup", speedup, "ratio"});
}

int run(const Args& a) {
  const Options& opts = a.opts;
  WorkDir work(opts.work_dir);
  fs::create_directories(opts.out_dir);
  if (opts.jobs != 0) parallel::set_global_jobs(opts.jobs);
  // The corpus files are the workloads' input: written once, untimed.
  workload::write_corpus({opts.corpus_seed, opts.corpus_count},
                         opts.corpus_dir());

  std::unique_ptr<Workload> w = opts.workload == "corpus_cold"
                                    ? make_corpus_cold(opts)
                                : opts.workload == "replay_warm"
                                    ? make_replay_warm(opts)
                                    : make_serve_warm(opts);
  const std::size_t jobs = parallel::resolve_jobs(parallel::global_jobs());
  std::cout << "perfbench " << opts.workload << ": seed=" << opts.seed
            << " corpus_seed=" << opts.corpus_seed
            << " corpus_count=" << opts.corpus_count
            << " seconds=" << fmt(opts.seconds) << " trace=" << opts.trace
            << "\nhost: nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << " jobs=" << jobs << " compiler=\"" << PERFBENCH_COMPILER
            << "\" build_type=" << PERFBENCH_BUILD_TYPE << "\n";

  // Set-up, several times, with yardstick bursts on both sides of each:
  // setup_s is the median, each set-up scaled by the cpu part around it
  // (set-up is in-process work).
  auto bursts = [] {
    for (int b = 0; b < kBurstsAroundSetup; ++b) yardstick().burst();
  };
  std::vector<double> setups_raw;
  std::vector<double> setups;
  std::vector<std::int64_t> setup_mid;
  for (std::size_t r = 0; r < w->setup_repeats(); ++r) {
    bursts();
    std::int64_t t0 = now_ns();
    w->setup(r);
    std::int64_t t1 = now_ns();
    setups_raw.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_mid.push_back(t0 + (t1 - t0) / 2);
  }
  bursts();
  for (std::size_t r = 0; r < setups_raw.size(); ++r) {
    setups.push_back(setups_raw[r] /
                     host_slowdown(setup_mid[r], false, kSetupNear));
  }
  double setup_s = median(setups);

  const bool wake = w->wakes();
  const std::size_t near = w->yardstick_near();
  const Slowdown scaled = [wake, near](std::int64_t at) {
    return host_slowdown(at, wake, near);
  };
  const Slowdown unscaled = [](std::int64_t) { return 1.0; };
  Phase measured = w->measure();
  Summary e2e = summarize(measured, w->tail_percentile(), scaled);
  Summary e2e_raw = summarize(measured, w->tail_percentile(), unscaled);
  std::uint64_t attempted = measured.attempted;
  std::uint64_t failed = measured.failed;

  Checks checks;
  std::vector<Metric> layers;
  std::optional<Summary> traced_e2e;
  std::optional<Summary> pool_e2e;
  const std::size_t pool_jobs = parallel::hardware_jobs();
  if (opts.trace) {
    tracer().set_enabled(true);
    Phase traced = w->measure();
    traced_e2e = summarize(traced, w->tail_percentile(), scaled);
    attempted += traced.attempted;
    failed += traced.failed;
    w->layers(traced, layers, checks);
    tracer().set_enabled(false);
    // parallel.*: an engine workload's pool work is measured in one more
    // untraced phase at the CLI default jobs (its reports are held to the
    // same references); the others read their traced phase.
    Phase pool = traced;
    if (w->runs_engines()) {
      parallel::set_global_jobs(pool_jobs);
      pool = w->measure();
      parallel::set_global_jobs(opts.jobs);
      pool_e2e = summarize(pool, w->tail_percentile(), scaled);
      attempted += pool.attempted;
      failed += pool.failed;
    }
    pool_metrics(pool, pool_e2e ? pool_e2e->throughput_rps / e2e.throughput_rps
                                : 0.0,
                 layers);
    layers.push_back({"trace.overhead_throughput_rps",
                      traced_e2e->throughput_rps - e2e.throughput_rps,
                      "ops/s"});
    layers.push_back(
        {"trace.overhead_latency_p50_ms", traced_e2e->p50_ms - e2e.p50_ms, "ms"});
    layers.push_back({"trace.overhead_latency_tail_ms",
                      traced_e2e->tail_ms - e2e.tail_ms, "ms"});
  }
  w->check(checks);
  bool correct = failed == 0 && checks.failures.empty();

  std::cout << "setup_s samples (raw):";
  for (double s : setups_raw) std::cout << " " << fmt(s);
  std::cout << "\nthroughput windows (ops/s, raw):";
  for (double r : measured.window_rps) std::cout << " " << fmt(r);
  std::vector<double> cpu_ms;
  std::vector<double> wake_ms;
  for (const auto& y : yardstick().samples()) {
    cpu_ms.push_back(y.cpu_ms);
    wake_ms.push_back(y.wake_ms);
  }
  std::cout << "\nyardstick: " << cpu_ms.size() << " bursts, cpu part median "
            << fmt(median(cpu_ms)) << " ms (reference " << kReferenceCpuMs
            << "), wake part median " << fmt(median(wake_ms))
            << " ms (reference " << kReferenceWakeMs << ")"
            << (wake ? "; scaled by both parts" : "; scaled by the cpu part")
            << (near == 0 ? ", run median"
                          : ", median of the " + std::to_string(near) +
                                " nearest bursts")
            << "\nraw: throughput_rps " << fmt(e2e_raw.throughput_rps)
            << " ops/s, latency_p50_ms " << fmt(e2e_raw.p50_ms)
            << " ms, latency_tail_ms " << fmt(e2e_raw.tail_ms)
            << " ms, setup_s " << fmt(median(setups_raw)) << " s\n";
  print_summary(e2e);
  std::cout << "setup_s = " << fmt(setup_s) << " s\n";
  std::cout << "checks: manifest=" << checks.manifest_checked
            << " cross_path=" << checks.cross_path_checked
            << " oracle_inject=" << checks.oracle_inject
            << " oracle_gate_rows=" << checks.oracle_gate_rows
            << " failures=" << checks.failures.size() << "\n";
  for (const auto& f : checks.failures) std::cout << "check failed: " << f << "\n";

  // Every listed per-layer metric, in list order.
  std::vector<Metric> per_layer;
  if (opts.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = std::find_if(layers.begin(), layers.end(),
                             [&](const Metric& m) { return m.name == name; });
      bool timed = std::string(unit) == "us" || std::string(unit) == "ms";
      per_layer.push_back(it != layers.end()
                              ? *it
                              : Metric{name, 0.0, unit, timed ? 0 : -1, 0.0});
      if (it != layers.end() && it->unit != unit) {
        throw Error("layer metric " + it->name + " has unit " + it->unit);
      }
    }
    std::cout << "traced phase:\n";
    print_summary(*traced_e2e);
    std::cout << "trace overhead (traced - untraced): throughput_rps "
              << fmt(traced_e2e->throughput_rps - e2e.throughput_rps)
              << " ops/s, latency_p50_ms " << fmt(traced_e2e->p50_ms - e2e.p50_ms)
              << " ms, latency_tail_ms "
              << fmt(traced_e2e->tail_ms - e2e.tail_ms) << " ms\n";
    if (pool_e2e) {
      std::cout << "pool phase at the CLI default jobs=" << pool_jobs << ":\n";
      print_summary(*pool_e2e);
    }
    std::cout << "sta stage tolerance: coverage in [" << kStageCoverageMin
              << ", " << kStageCoverageMax << "]\n";
    for (const auto& m : per_layer) {
      std::cout << "layer " << m.name << " = " << fmt(m.value) << " " << m.unit;
      if (m.calls >= 0) {
        std::cout << " (calls " << m.calls << ", total " << fmt(m.total) << " "
                  << m.unit << ")";
      }
      std::cout << "\n";
    }
  }

  // The full record, then the result line.
  auto host = json::Value::object()
                  .set("nproc", static_cast<std::int64_t>(
                                    sysconf(_SC_NPROCESSORS_ONLN)))
                  .set("hardware_concurrency",
                       static_cast<std::uint64_t>(
                           std::thread::hardware_concurrency()))
                  .set("jobs", static_cast<std::uint64_t>(jobs))
                  .set("compiler", PERFBENCH_COMPILER)
                  .set("build_type", PERFBENCH_BUILD_TYPE);
  auto setup_list = json::Value::array();
  for (double s : setups_raw) setup_list.push(s);
  auto failures = json::Value::array();
  for (const auto& f : checks.failures) failures.push(f);
  auto record = json::Value::object();
  record.set("workload", opts.workload)
      .set("seed", std::to_string(opts.seed))
      .set("corpus_seed", std::to_string(opts.corpus_seed))
      .set("corpus_count", static_cast<std::uint64_t>(opts.corpus_count))
      .set("seconds", opts.seconds)
      .set("trace", opts.trace)
      .set("host", std::move(host))
      .set("setup_s", setup_s)
      .set("setup_raw_s", median(setups_raw))
      .set("setup_raw_samples", std::move(setup_list))
      .set("measured", summary_json(e2e))
      .set("measured_raw", summary_json(e2e_raw))
      .set("yardstick",
           json::Value::object()
               .set("bursts", static_cast<std::uint64_t>(cpu_ms.size()))
               .set("cpu_ms_median", median(cpu_ms))
               .set("wake_ms_median", median(wake_ms))
               .set("reference_cpu_ms", kReferenceCpuMs)
               .set("reference_wake_ms", kReferenceWakeMs)
               .set("scaled_by", wake ? "cpu+wake" : "cpu")
               .set("nearest_bursts", static_cast<std::uint64_t>(near)))
      .set("checks", json::Value::object()
                         .set("manifest", checks.manifest_checked)
                         .set("cross_path", checks.cross_path_checked)
                         .set("oracle_inject", checks.oracle_inject)
                         .set("oracle_gate_rows", checks.oracle_gate_rows)
                         .set("failures", std::move(failures)));
  if (traced_e2e) {
    auto layer_list = json::Value::array();
    for (const auto& m : per_layer) {
      auto entry = json::Value::object();
      entry.set("name", m.name).set("value", m.value).set("unit", m.unit);
      if (m.calls >= 0) {
        entry.set("calls", m.calls).set("total", m.total);
      }
      layer_list.push(std::move(entry));
    }
    record.set("traced", summary_json(*traced_e2e))
        .set("layers", std::move(layer_list))
        .set("stage_coverage_tolerance",
             json::Value::array().push(kStageCoverageMin).push(kStageCoverageMax));
  }
  if (pool_e2e) {
    record.set("pool", summary_json(*pool_e2e).set(
                           "jobs", static_cast<std::uint64_t>(pool_jobs)));
  }
  std::string stem = opts.workload + "-seed" + std::to_string(opts.seed);
  fs::path record_path = opts.out_dir / ("result-" + stem + "-trace" +
                                         (opts.trace ? "1" : "0") + ".json");
  if (!write_file(record_path, record.dump(2) + "\n")) {
    throw Error("cannot write " + record_path.string());
  }
  if (opts.trace) tracer().write_chrome(opts.out_dir / ("trace-" + stem + ".json"));

  auto metrics = json::Value::object();
  auto put = [&metrics](const std::string& name, double v, const char* unit) {
    metrics.set(name, json::Value::object().set("value", v).set("unit", unit));
  };
  if (opts.trace) {
    for (const auto& m : per_layer) put(m.name, m.value, m.unit.c_str());
  } else {
    put("throughput_rps", e2e.throughput_rps, "ops/s");
    put("latency_p50_ms", e2e.p50_ms, "ms");
    put("latency_tail_ms", e2e.tail_ms, "ms");
    put("peak_rss_mb", e2e.peak_rss_mb, "MiB");
    put("setup_s", setup_s, "s");
  }
  auto result = json::Value::object();
  result.set("correct", correct)
      .set("attempted", attempted)
      .set("failed", failed)
      .set("metrics", std::move(metrics));
  std::cout << result.dump(0) << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Args a = parse_args(argc, argv);
    return a.write_manifest.empty() ? run(a) : write_manifest(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
