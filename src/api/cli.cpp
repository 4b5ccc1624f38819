#include "api/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "api/disk_cache.hpp"
#include "api/session.hpp"
#include "api/wire.hpp"
#include "remote/executor.hpp"
#include "benchmarks/suite.hpp"
#include "circuits/components.hpp"
#include "library/io.hpp"
#include "parallel/config.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "dfg/io.hpp"
#include "rtl/datapath.hpp"
#include "scenario/parse.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"
#include "workload/corpus.hpp"

namespace rchls::api {

namespace {

constexpr const char* kUsage =
    "usage:\n"
    "  rchls run <scenario.scn> [--verify-cache]\n"
    "  rchls synth <dfg-file|benchmark> --latency N --area A\n"
    "              [--engine centric|baseline|combined] [--polish]\n"
    "              [--scheduler density|fds] [--datapath]\n"
    "  rchls sweep <dfg-file|benchmark> --latency N --areas A1,A2,...\n"
    "              [--polish] [--scheduler density|fds]\n"
    "  rchls inject <component|dfg-file|benchmark> [--width W]\n"
    "               [--trials N] [--seed S] [--gate G] [--top K]\n"
    "               [--lib FILE] [--versions fastest|most_reliable]\n"
    "               (graph targets elaborate to gates first and need\n"
    "               --top; see docs/timing.md)\n"
    "  rchls sta <component|dfg-file|benchmark> [--width W] [--clock C]\n"
    "            [--lib FILE] [--versions fastest|most_reliable]\n"
    "            [--top-paths N] [--top K] [--trials N] [--seed S]\n"
    "            (static timing report + sensitivity/slack join over the\n"
    "             elaborated netlist, see docs/timing.md)\n"
    "  rchls gen <dir> [--seed S] [--count N]\n"
    "              (write a seeded workload corpus: generated .dfg/.scn\n"
    "               cases + manifest.json, see docs/workloads.md)\n"
    "  rchls cache stats|clear   (inspect / empty the persistent cache)\n"
    "  rchls cache prune --max-bytes N\n"
    "              (LRU-evict oldest entries until the cache fits)\n"
    "  rchls serve --socket PATH [--port N] [--max-queue K] [--workers W]\n"
    "              [--max-connections N] [--idle-timeout-s S]\n"
    "              (resident request daemon; serves wire envelopes over\n"
    "               the socket until SIGINT/SIGTERM, see docs/serving.md)\n"
    "  rchls request <request.json> --socket PATH | --port N\n"
    "              [--timeout-ms MS] [--retries N]\n"
    "              (send one wire request to a daemon, print the result\n"
    "               envelope; make request files with --emit-request)\n"
    "  rchls fleet status --endpoints EP1,EP2,...\n"
    "              (per-endpoint daemon counters; an endpoint is a unix\n"
    "               socket path or host:port, see docs/remote.md)\n"
    "  rchls bench   (list built-in benchmark graphs)\n"
    "inject components: ripple_carry_adder brent_kung_adder\n"
    "  kogge_stone_adder carry_save_multiplier leapfrog_multiplier\n"
    "global flags (all commands except bench):\n"
    "  --jobs N                  parallel workers (default: hardware\n"
    "                            concurrency)\n"
    "  --format json|csv|table   report format (default: table; sweep\n"
    "                            defaults to csv)\n"
    "  --out FILE                write the report to FILE, not stdout\n"
    "  --cache-dir DIR           persistent result cache directory\n"
    "                            (default: $RCHLS_CACHE_DIR; for `cache`:\n"
    "                            .rchls-cache)\n"
    "  --endpoints EP1,EP2,...   run via a fleet of rchls serve daemons\n"
    "                            (run, sweep and sta)\n"
    "  --timeout-ms MS           per-request reply deadline over sockets\n"
    "                            (request, fleet, and run/sweep/sta with\n"
    "                            --endpoints; 0 = forever)\n"
    "  --retries N               socket retry budget (request: same\n"
    "                            connection; --endpoints: re-dispatch to\n"
    "                            another endpoint; default 0 / 3)\n"
    "  --emit-request FILE       write the wire request envelope to FILE\n"
    "                            instead of executing (synth, sweep,\n"
    "                            inject, sta)\n"
    "exit codes: 0 success; 1 usage, parse or I/O error; 2 no solution\n"
    "  within bounds (synth only)\n"
    "scenario format reference: docs/scenario-format.md\n";

struct Args {
  std::string command;
  std::string target;   // graph spec, scenario path, component, or subverb
  std::optional<int> latency;
  std::optional<double> area;
  std::vector<double> areas;
  std::string engine = "centric";
  std::string scheduler = "density";
  bool polish = false;
  bool datapath = false;
  bool verify_cache = false;
  int width = 16;
  std::size_t trials = 64 * 256;
  std::uint64_t seed = 1;
  std::size_t count = 100;  // gen: corpus case count
  std::optional<std::uint32_t> gate;
  int top = 0;
  int top_paths = 3;           // sta: critical paths to trace
  double clock = 0.0;          // sta: 0 = derived from the longest path
  std::string versions = "fastest";  // sta/inject graph targets
  std::string lib;             // sta/inject graph targets: library file
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::string cache_dir;  // empty = $RCHLS_CACHE_DIR, then none
  std::string format;    // empty = per-command default
  std::string out;
  std::string emit_request;  // write the wire request here, don't run
  std::string socket_path;   // serve/request: unix-domain socket
  std::optional<int> port;   // serve/request: 127.0.0.1 TCP port
  std::size_t max_queue = 64;
  std::size_t workers = 2;
  std::size_t max_connections = 0;  // serve: 0 = unlimited
  int idle_timeout_s = 0;           // serve: 0 = never reap
  std::string endpoints;            // run/sweep/sta/fleet: daemon fleet
  std::optional<int> timeout_ms;    // socket deadline; unset = forever
  std::optional<int> retries;       // unset = per-command default (0 / 3)
  std::optional<std::uint64_t> max_bytes;  // cache prune budget
};

// One diagnostic convention for every failure path (tested by
// tests/api_cli_test.cpp): a single "error: ..." line on the error
// stream, exit code 1.
int fail(std::ostream& err, const std::string& msg) {
  err << "error: " << msg << "\n";
  return 1;
}

// Argument errors additionally print the usage text.
int fail_usage(std::ostream& err, const std::string& msg) {
  fail(err, msg);
  err << kUsage;
  return 1;
}

int to_int(const std::string& flag, const std::string& tok) {
  auto v = try_parse_int(tok);
  if (!v) throw Error(flag + " expects an integer (got '" + tok + "')");
  return *v;
}

// Full 64-bit range for counters like --seed and --trials, which the
// engines take as uint64/size_t (to_int would reject anything past
// 2^31-1).
std::uint64_t to_uint64(const std::string& flag, const std::string& tok) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    throw Error(flag + " expects a non-negative integer (got '" + tok +
                "')");
  }
  return v;
}

double to_double(const std::string& flag, const std::string& tok) {
  auto v = try_parse_double(tok);
  if (!v) throw Error(flag + " expects a number (got '" + tok + "')");
  return *v;
}

// Which subcommands each flag applies to; anything else is rejected
// up front with the same "error: ..." contract as unknown flags, so a
// misplaced flag can never be silently ignored.
const std::map<std::string, std::vector<std::string>, std::less<>>&
flag_commands() {
  static const std::map<std::string, std::vector<std::string>, std::less<>>
      table = {
          {"--latency", {"synth", "sweep"}},
          {"--area", {"synth"}},
          {"--areas", {"sweep"}},
          {"--engine", {"synth"}},
          {"--scheduler", {"synth", "sweep"}},
          {"--polish", {"synth", "sweep"}},
          {"--datapath", {"synth"}},
          {"--width", {"inject", "sta"}},
          {"--trials", {"inject", "sta"}},
          {"--seed", {"inject", "sta", "gen"}},
          {"--count", {"gen"}},
          {"--gate", {"inject"}},
          {"--top", {"inject", "sta"}},
          {"--top-paths", {"sta"}},
          {"--clock", {"sta"}},
          {"--versions", {"inject", "sta"}},
          {"--lib", {"inject", "sta"}},
          {"--verify-cache", {"run"}},
          {"--jobs", {"run", "synth", "sweep", "inject", "sta", "serve"}},
          {"--format", {"run", "synth", "sweep", "inject", "sta"}},
          {"--out", {"run", "synth", "sweep", "inject", "sta", "request"}},
          {"--cache-dir",
           {"run", "synth", "sweep", "inject", "sta", "cache", "serve"}},
          {"--emit-request", {"synth", "sweep", "inject", "sta"}},
          {"--socket", {"serve", "request"}},
          {"--port", {"serve", "request"}},
          {"--max-queue", {"serve"}},
          {"--workers", {"serve"}},
          {"--max-connections", {"serve"}},
          {"--idle-timeout-s", {"serve"}},
          {"--endpoints", {"run", "sweep", "sta", "fleet"}},
          {"--timeout-ms", {"request", "run", "sweep", "sta", "fleet"}},
          {"--retries", {"request", "run", "sweep", "sta"}},
          {"--max-bytes", {"cache"}},
      };
  return table;
}

// Throws Error (reported as a usage failure by cli_main) instead of
// returning a partial Args; keeps every malformed flag on the same
// "error: ..." + usage path.
Args parse_args(const std::vector<std::string>& args) {
  Args a;
  a.command = args.front();
  std::size_t i = 1;
  if (a.command != "bench" && a.command != "serve") {
    if (args.size() < 2 || starts_with(args[1], "--")) {
      throw Error("'" + a.command + "' needs a positional argument");
    }
    a.target = args[1];
    i = 2;
  }
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw Error(flag + " expects a value");
      }
      return args[++i];
    };
    auto allowed = flag_commands().find(flag);
    if (allowed == flag_commands().end()) {
      throw Error("unknown flag '" + flag + "'");
    }
    if (std::find(allowed->second.begin(), allowed->second.end(),
                  a.command) == allowed->second.end()) {
      throw Error(flag + " does not apply to 'rchls " + a.command + "'");
    }
    if (flag == "--latency") {
      a.latency = to_int(flag, next());
    } else if (flag == "--area") {
      a.area = to_double(flag, next());
    } else if (flag == "--areas") {
      for (const auto& tok : split(next(), ',')) {
        a.areas.push_back(to_double(flag, tok));
      }
    } else if (flag == "--engine") {
      a.engine = next();
    } else if (flag == "--scheduler") {
      a.scheduler = next();
    } else if (flag == "--jobs") {
      int jobs = to_int(flag, next());
      if (jobs < 1) throw Error("--jobs needs a positive worker count");
      a.jobs = static_cast<std::size_t>(jobs);
    } else if (flag == "--width") {
      a.width = to_int(flag, next());
    } else if (flag == "--trials") {
      std::uint64_t t = to_uint64(flag, next());
      if (t < 1) throw Error("--trials needs a positive count");
      a.trials = static_cast<std::size_t>(t);
    } else if (flag == "--seed") {
      a.seed = to_uint64(flag, next());
    } else if (flag == "--count") {
      std::uint64_t n = to_uint64(flag, next());
      if (n < 1) throw Error("--count needs a positive case count");
      a.count = static_cast<std::size_t>(n);
    } else if (flag == "--gate") {
      std::uint64_t g = to_uint64(flag, next());
      if (g > std::numeric_limits<std::uint32_t>::max()) {
        throw Error("--gate id is out of range");
      }
      a.gate = static_cast<std::uint32_t>(g);
    } else if (flag == "--top") {
      a.top = to_int(flag, next());
      if (a.top < 0) throw Error("--top needs a non-negative count");
    } else if (flag == "--top-paths") {
      a.top_paths = to_int(flag, next());
      if (a.top_paths < 0) {
        throw Error("--top-paths needs a non-negative count");
      }
    } else if (flag == "--clock") {
      a.clock = to_double(flag, next());
      if (a.clock < 0) throw Error("--clock cannot be negative");
    } else if (flag == "--versions") {
      a.versions = next();
      if (a.versions != "fastest" && a.versions != "most_reliable") {
        throw Error("--versions must be fastest or most_reliable (got '" +
                    a.versions + "')");
      }
    } else if (flag == "--lib") {
      a.lib = next();
      if (a.lib.empty()) throw Error("--lib needs a non-empty file path");
    } else if (flag == "--cache-dir") {
      a.cache_dir = next();
      if (a.cache_dir.empty()) {
        throw Error("--cache-dir needs a non-empty directory");
      }
    } else if (flag == "--format") {
      const std::string& v = next();
      if (v != "json" && v != "csv" && v != "table") {
        throw Error("--format must be json, csv or table (got '" + v +
                    "')");
      }
      a.format = v;
    } else if (flag == "--out") {
      a.out = next();
    } else if (flag == "--emit-request") {
      a.emit_request = next();
      if (a.emit_request.empty()) {
        throw Error("--emit-request needs a non-empty file path");
      }
    } else if (flag == "--socket") {
      a.socket_path = next();
      if (a.socket_path.empty()) {
        throw Error("--socket needs a non-empty path");
      }
    } else if (flag == "--port") {
      int port = to_int(flag, next());
      if (port < 0 || port > 65535) {
        throw Error("--port must be in [0, 65535] (0 = ephemeral)");
      }
      a.port = port;
    } else if (flag == "--max-queue") {
      int q = to_int(flag, next());
      if (q < 1) throw Error("--max-queue needs a positive count");
      a.max_queue = static_cast<std::size_t>(q);
    } else if (flag == "--max-connections") {
      int c = to_int(flag, next());
      if (c < 1) throw Error("--max-connections needs a positive count");
      a.max_connections = static_cast<std::size_t>(c);
    } else if (flag == "--idle-timeout-s") {
      a.idle_timeout_s = to_int(flag, next());
      if (a.idle_timeout_s < 1) {
        throw Error("--idle-timeout-s needs a positive second count");
      }
    } else if (flag == "--endpoints") {
      a.endpoints = next();
      if (a.endpoints.empty()) {
        throw Error("--endpoints needs a comma-separated endpoint list");
      }
    } else if (flag == "--timeout-ms") {
      a.timeout_ms = to_int(flag, next());
      if (*a.timeout_ms < 0) throw Error("--timeout-ms cannot be negative");
    } else if (flag == "--retries") {
      a.retries = to_int(flag, next());
      if (*a.retries < 0) throw Error("--retries cannot be negative");
    } else if (flag == "--workers") {
      int w = to_int(flag, next());
      if (w < 1) throw Error("--workers needs a positive count");
      a.workers = static_cast<std::size_t>(w);
    } else if (flag == "--max-bytes") {
      a.max_bytes = to_uint64(flag, next());
    } else if (flag == "--polish") {
      a.polish = true;
    } else if (flag == "--datapath") {
      a.datapath = true;
    } else {  // "--verify-cache" (the table rejected everything else)
      a.verify_cache = true;
    }
  }
  if (a.format.empty()) a.format = a.command == "sweep" ? "csv" : "table";
  if (a.datapath && a.format != "table") {
    throw Error("--datapath requires --format table");
  }
  // run/sweep/sta only talk to sockets through a fleet.
  if (a.endpoints.empty() && a.command != "request" && a.command != "fleet") {
    if (a.timeout_ms) throw Error("--timeout-ms needs --endpoints");
    if (a.retries) throw Error("--retries needs --endpoints");
  }
  return a;
}

// --lib FILE overrides the paper library for graph-shaped sta/inject
// targets (the file may carry `timing` directives, see docs/timing.md).
library::ResourceLibrary load_library(const Args& a) {
  if (a.lib.empty()) return library::paper_library();
  std::ifstream in(a.lib);
  if (!in) throw Error("cannot open library file '" + a.lib + "'");
  return library::parse(in);
}

dfg::Graph load_graph(const std::string& spec) {
  for (const auto& name : benchmarks::all_names()) {
    if (name == spec) return benchmarks::by_name(spec);
  }
  std::ifstream in(spec);
  if (!in) {
    throw Error("cannot open '" + spec + "' (and it is not a built-in "
                "benchmark name)");
  }
  return dfg::parse(in);
}

std::string render(const scenario::RunReport& report,
                   const std::string& format) {
  if (format == "json") return scenario::report::to_json(report);
  if (format == "csv") return scenario::report::to_csv(report);
  return scenario::report::to_table(report);
}

// Delivers a rendered report to stdout or --out FILE.
int emit(const std::string& rendered, const Args& a, std::ostream& out) {
  if (a.out.empty()) {
    out << rendered;
    return 0;
  }
  std::ofstream file(a.out);
  if (!file) throw Error("cannot open output file '" + a.out + "'");
  file << rendered;
  file.flush();
  if (!file) throw Error("failed writing output file '" + a.out + "'");
  return 0;
}

// --emit-request: the wire envelope is the product; nothing executes.
// Composes with `rchls request`, which consumes these files.
bool emit_request_file(const Args& a, const Request& req) {
  if (a.emit_request.empty()) return false;
  if (!write_file(a.emit_request, wire::encode(req))) {
    throw Error("cannot write request file '" + a.emit_request + "'");
  }
  return true;
}

hls::FindDesignOptions engine_options(const Args& a) {
  hls::FindDesignOptions fd;
  fd.enable_polish = a.polish;
  if (a.scheduler == "fds") {
    fd.scheduler = hls::SchedulerKind::kForceDirected;
  } else if (a.scheduler != "density") {
    throw Error("unknown scheduler '" + a.scheduler +
                "' (expected density or fds)");
  }
  return fd;
}

// The one-shot commands wrap their single result in a RunReport whose
// scenario name and action label equal the command name. That makes
// `rchls synth ... --format json` byte-identical to `rchls run` on the
// equivalent one-action scenario (`scenario synth` + `find_design ...
// label=synth`) -- the shared-writer guarantee tests/api_cli_test.cpp
// pins.
scenario::RunReport one_shot_report(const std::string& command,
                                    std::optional<dfg::Graph> graph,
                                    library::ResourceLibrary lib) {
  scenario::RunReport report;
  report.scenario_name = command;
  report.graph = std::move(graph);
  report.library = std::move(lib);
  return report;
}

int run_synth(const Args& a, Session& session, std::ostream& out,
              std::ostream& err) {
  if (!a.latency || !a.area) {
    throw Error("synth needs --latency and --area");
  }
  FindDesignRequest req;
  req.graph = load_graph(a.target);
  req.library = library::paper_library();
  req.latency_bound = *a.latency;
  req.area_bound = *a.area;
  req.engine = a.engine;
  req.options = engine_options(a);
  if (emit_request_file(a, Request(req))) return 0;

  FindDesignResult r = session.run(req);
  if (!r.solved) {
    err << "error: no solution: " << r.no_solution_reason << "\n";
    return 2;
  }

  std::string datapath;
  if (a.datapath) {  // parse_args enforced --format table
    datapath = "\n" + rtl::to_string(
        rtl::build_datapath(*r.design, req.graph, req.library), req.graph);
  }

  scenario::RunReport report =
      one_shot_report("synth", req.graph, req.library);
  report.actions.push_back({"synth", 0, std::move(r)});
  return emit(render(report, a.format) + datapath, a, out);
}

int run_sweep(const Args& a, Session& session, std::ostream& out) {
  if (!a.latency || a.areas.empty()) {
    throw Error("sweep needs --latency and --areas");
  }
  SweepRequest req;
  req.graph = load_graph(a.target);
  req.library = library::paper_library();
  req.axis = SweepAxis::kArea;
  req.latency_bounds = {*a.latency};
  req.area_bounds = a.areas;
  req.options = engine_options(a);
  if (emit_request_file(a, Request(req))) return 0;

  SweepResult r = session.run(req);
  scenario::RunReport report =
      one_shot_report("sweep", req.graph, req.library);
  report.actions.push_back({"sweep", 0, std::move(r)});
  return emit(render(report, a.format), a, out);
}

int run_inject(const Args& a, Session& session, std::ostream& out) {
  if (a.width < 1) throw Error("inject needs a positive --width");

  if (!circuits::is_component(a.target)) {
    // Graph target: elaborate under the version policy and rank its
    // gates (the whole-campaign InjectRequest stays component-only, so
    // the ranking IS the report here and --top is required).
    if (a.top < 1) {
      throw Error("inject on a graph target needs --top (the elaborated "
                  "netlist is reported through rank_gates)");
    }
    if (a.gate) {
      throw Error("--gate applies to components, not graph targets");
    }
    RankGatesRequest rank;
    rank.graph = load_graph(a.target);
    rank.library = load_library(a);
    rank.versions = a.versions;
    rank.width = a.width;
    rank.trials = a.trials;
    rank.seed = a.seed;
    rank.top = a.top;
    if (emit_request_file(a, Request(rank))) return 0;
    scenario::RunReport report =
        one_shot_report("inject", rank.graph, rank.library);
    report.actions.push_back({"rank_gates", 0, session.run(rank)});
    return emit(render(report, a.format), a, out);
  }

  InjectRequest req;
  req.component = a.target;
  req.width = a.width;
  req.trials = a.trials;
  req.seed = a.seed;
  req.gate = a.gate;
  if (!a.emit_request.empty() && a.top > 0) {
    throw Error("--emit-request emits one request; drop --top");
  }
  if (emit_request_file(a, Request(req))) return 0;

  // A graphless report defaults to the paper library, exactly like a
  // campaign-only scenario file.
  scenario::RunReport report =
      one_shot_report("inject", std::nullopt, library::paper_library());
  report.actions.push_back({"inject", 0, session.run(req)});

  if (a.top > 0) {
    RankGatesRequest rank;
    rank.component = a.target;
    rank.width = a.width;
    rank.trials = a.trials;
    rank.seed = a.seed;
    rank.top = a.top;
    report.actions.push_back({"rank_gates", 0, session.run(rank)});
  }
  return emit(render(report, a.format), a, out);
}

int run_sta(const Args& a, Session& session, std::ostream& out) {
  if (a.width < 1) throw Error("sta needs a positive --width");

  StaRequest req;
  if (circuits::is_component(a.target)) {
    // Component targets carry no context (the request's library stays
    // empty, matching the wire/cache encoding); the report defaults to
    // the paper library like any graphless scenario.
    req.component = a.target;
  } else {
    req.graph = load_graph(a.target);
    req.library = load_library(a);
    req.versions = a.versions;
  }
  req.width = a.width;
  req.clock = a.clock;
  req.top_paths = a.top_paths;
  req.top = a.top;
  req.trials = a.trials;
  req.seed = a.seed;
  if (emit_request_file(a, Request(req))) return 0;

  scenario::RunReport report = one_shot_report(
      "sta", req.graph,
      req.graph ? req.library : library::paper_library());
  report.actions.push_back({"sta", 0, session.run(req)});
  return emit(render(report, a.format), a, out);
}

int run_scenario(const Args& a, Session& session, std::ostream& out,
                 std::ostream& err) {
  scenario::Scenario scn = scenario::parse_file(a.target);
  scenario::RunReport report = scenario::run(scn, session);

  if (a.verify_cache) {
    // Cache-correctness check (CI runs this over every shipped
    // scenario): a second pass through the same session must be served
    // entirely from cache and render byte-identically.
    CacheStats cold = session.cache_stats();
    scenario::RunReport warm = scenario::run(scn, session);
    CacheStats stats = session.cache_stats();
    if (scenario::report::to_json(warm) !=
        scenario::report::to_json(report)) {
      return fail(err, "cache verification failed: warm-run report "
                       "differs from the cold run");
    }
    if (stats.misses != cold.misses ||
        stats.hits != cold.hits + scn.actions.size()) {
      return fail(err, "cache verification failed: " +
                           std::to_string(stats.misses - cold.misses) +
                           " of " + std::to_string(scn.actions.size()) +
                           " warm-run actions were recomputed");
    }
    // The stats ride along so CI logs show WHAT was verified, not just
    // that verification passed.
    err << "cache: verified " << scn.actions.size()
        << " actions served from cache, reports byte-identical"
        << " (hits=" << stats.hits << " misses=" << stats.misses
        << " entries=" << stats.entries << ")\n";
  }
  return emit(render(report, a.format), a, out);
}

// `rchls gen`: the workload corpus as a subcommand. Deterministic by
// the generate_corpus contract (workload/corpus.hpp): re-running with
// the same --seed/--count overwrites every file with identical bytes.
int run_gen(const Args& a, std::ostream& out) {
  workload::CorpusConfig cfg;
  cfg.seed = a.seed;
  cfg.count = a.count;
  std::size_t files = workload::write_corpus(cfg, a.target);
  out << "gen: wrote " << files << " files (" << cfg.count
      << " cases) to " << a.target << " (seed=" << cfg.seed << ")\n";
  return 0;
}

int run_bench(std::ostream& out) {
  for (const auto& name : benchmarks::all_names()) {
    auto g = benchmarks::by_name(name);
    out << name << ": " << g.node_count() << " ops ("
        << g.count_ops(dfg::OpType::kMul) << " mul)\n";
  }
  return 0;
}

// --cache-dir wins, then $RCHLS_CACHE_DIR; the `cache` subcommand
// additionally defaults to the conventional .rchls-cache so
// `rchls cache stats` works bare. Engine commands default to NO disk
// cache -- persisting results is an explicit opt-in.
std::string resolved_cache_dir(const Args& a) {
  if (!a.cache_dir.empty()) return a.cache_dir;
  if (const char* env = std::getenv("RCHLS_CACHE_DIR")) {
    if (*env != '\0') return env;
  }
  return a.command == "cache" ? ".rchls-cache" : "";
}

int run_cache(const Args& a, std::ostream& out) {
  std::string dir = resolved_cache_dir(a);
  if (a.target == "stats") {
    DiskCacheUsage u;
    // Don't create the directory just to report that it is empty.
    if (std::filesystem::is_directory(dir)) u = DiskCache(dir).usage();
    out << "cache directory: " << dir << "\n"
        << "entries: " << u.entries << "\n"
        << "bytes: " << u.bytes << "\n";
    return 0;
  }
  if (a.target == "clear") {
    std::uint64_t removed = 0;
    if (std::filesystem::is_directory(dir)) removed = DiskCache(dir).clear();
    out << "cache directory: " << dir << "\n"
        << "removed: " << removed << "\n";
    return 0;
  }
  if (a.target == "prune") {
    if (!a.max_bytes) throw Error("cache prune needs --max-bytes");
    DiskCache::PruneReport r;
    if (std::filesystem::is_directory(dir)) {
      r = DiskCache(dir).prune(*a.max_bytes);
    }
    out << "cache directory: " << dir << "\n"
        << "removed: " << r.removed_entries << " (" << r.removed_bytes
        << " bytes)\n"
        << "kept: " << r.kept_entries << " (" << r.kept_bytes
        << " bytes)\n";
    return 0;
  }
  throw Error("cache expects 'stats', 'clear' or 'prune' (got '" + a.target +
              "')");
}

// Signal-driven daemon lifetime: the handler only flips a flag; the
// main loop notices and runs the orderly Server::stop(). sig_atomic_t
// is the only thing a signal handler may touch portably.
volatile std::sig_atomic_t g_serve_signal = 0;

extern "C" void serve_signal_handler(int) { g_serve_signal = 1; }

int run_serve(const Args& a, std::ostream& err) {
  if (a.socket_path.empty() && !a.port) {
    throw Error("serve needs --socket PATH and/or --port N");
  }
  serve::ServerOptions so;
  so.socket_path = a.socket_path;
  so.tcp_port = a.port ? *a.port : -1;
  so.max_queue = a.max_queue;
  so.workers = a.workers;
  so.max_connections = a.max_connections;
  so.idle_timeout_s = a.idle_timeout_s;
  so.session.jobs = a.jobs;
  so.session.cache_dir = resolved_cache_dir(a);
  so.log = &err;
  serve::Server server(std::move(so));

  err << "serve: listening";
  if (!server.socket_path().empty()) {
    err << " unix:" << server.socket_path();
  }
  if (server.tcp_port() != 0) err << " tcp:127.0.0.1:" << server.tcp_port();
  err << " workers=" << a.workers << " max-queue=" << a.max_queue;
  if (a.max_connections > 0) err << " max-connections=" << a.max_connections;
  if (a.idle_timeout_s > 0) err << " idle-timeout-s=" << a.idle_timeout_s;
  if (!resolved_cache_dir(a).empty()) {
    err << " cache-dir=" << resolved_cache_dir(a);
  }
  err << "\n" << std::flush;

  g_serve_signal = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (g_serve_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  server.stop();

  serve::ServeStats s = server.stats();
  SessionStats ss = server.session_stats();
  err << "serve: stopped connections=" << s.connections
      << " refused=" << s.refused_connections
      << " idle_reaped=" << s.idle_reaped
      << " requests=" << s.requests << " errors=" << s.errors
      << " overflows=" << s.overflows << " hits=" << ss.hits
      << " disk_hits=" << ss.disk_hits << " executed=" << ss.executions
      << "\n";
  parallel::PoolStats pool = parallel::pool_stats();
  err << "serve: pool tasks=" << pool.tasks_executed
      << " wakeups=" << pool.idle_wakeups << "\n";
  return 0;
}

// `rchls request`: the thin client. Reads a wire request file (made
// with --emit-request or by hand), round-trips it through a daemon,
// and emits the raw reply envelope -- result or error -- verbatim, so
// the output composes with anything that reads wire files.
int run_request(const Args& a, std::ostream& out, std::ostream& err) {
  if (a.socket_path.empty() == !a.port) {
    throw Error("request needs exactly one of --socket or --port");
  }
  std::string payload = read_file(a.target);
  serve::ClientOptions copts;
  copts.timeout_ms = a.timeout_ms.value_or(0);
  copts.retries = a.retries.value_or(0);
  serve::Client client =
      a.socket_path.empty()
          ? serve::Client::connect_tcp(*a.port, copts)
          : serve::Client::connect_unix(a.socket_path, copts);
  std::string reply = client.call_raw(payload);
  serve::Reply decoded = serve::decode_reply(reply);
  if (!decoded.ok()) return fail(err, "serve: " + decoded.error);
  return emit(reply, a, out);
}

// `rchls fleet status`: one line of daemon counters per endpoint, over
// fresh connections (kind:"stats" envelope). Exit 0 as long as the
// endpoints could be PARSED -- a down endpoint prints as down; scripts
// that care grep for it.
int run_fleet(const Args& a, std::ostream& out) {
  if (a.target != "status") {
    throw Error("fleet expects 'status' (got '" + a.target + "')");
  }
  if (a.endpoints.empty()) {
    throw Error("fleet status needs --endpoints EP1,EP2,...");
  }
  remote::FleetOptions fo;
  fo.endpoints = remote::parse_endpoints(a.endpoints);
  fo.timeout_ms = a.timeout_ms.value_or(0);
  fo.retries = 0;  // status probes answer for exactly one endpoint each
  remote::Fleet fleet(std::move(fo));

  std::vector<std::optional<serve::DaemonStats>> stats =
      fleet.probe_stats();
  std::vector<remote::EndpointStats> specs = fleet.stats();
  out << "fleet: " << stats.size() << " endpoints\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const std::string& spec = specs[i].spec;
    if (!stats[i]) {
      out << "endpoint " << spec << ": down\n";
      continue;
    }
    const serve::DaemonStats& d = *stats[i];
    out << "endpoint " << spec << ": up requests=" << d.requests
        << " errors=" << d.errors << " overflows=" << d.overflows
        << " connections=" << d.connections
        << " active=" << d.active_connections
        << " refused=" << d.refused_connections
        << " idle_reaped=" << d.idle_reaped << " hits=" << d.hits
        << " disk_hits=" << d.disk_hits << " executed=" << d.executions
        << " entries=" << d.entries << "\n";
  }
  return 0;
}

}  // namespace

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.empty()) return fail_usage(err, "missing command");
  const std::string& command = args.front();
  if (command != "run" && command != "synth" && command != "sweep" &&
      command != "inject" && command != "sta" && command != "bench" &&
      command != "cache" && command != "serve" && command != "request" &&
      command != "gen" && command != "fleet") {
    return fail_usage(err, "unknown command '" + command + "'");
  }

  Args a;
  try {
    a = parse_args(args);
  } catch (const Error& e) {
    return fail_usage(err, e.what());
  }

  try {
    if (a.command == "bench") return run_bench(out);
    if (a.command == "gen") return run_gen(a, out);
    if (a.command == "cache") return run_cache(a, out);
    if (a.command == "serve") return run_serve(a, err);
    if (a.command == "request") return run_request(a, out, err);
    if (a.command == "fleet") return run_fleet(a, out);

    SessionOptions opts;
    opts.jobs = a.jobs;
    opts.cache_dir = resolved_cache_dir(a);
    std::shared_ptr<remote::RemoteExecutor> remote_exec;
    if (!a.endpoints.empty()) {
      remote::RemoteOptions ro;
      ro.fleet.endpoints = remote::parse_endpoints(a.endpoints);
      ro.fleet.timeout_ms = a.timeout_ms.value_or(0);
      ro.fleet.retries = a.retries.value_or(3);
      remote_exec = std::make_shared<remote::RemoteExecutor>(std::move(ro));
      opts.executor = remote_exec;
    }
    Session session(opts);

    int code = 0;
    if (a.command == "run") {
      code = run_scenario(a, session, out, err);
    } else if (a.command == "synth") {
      code = run_synth(a, session, out, err);
    } else if (a.command == "sweep") {
      code = run_sweep(a, session, out);
    } else if (a.command == "inject") {
      code = run_inject(a, session, out);
    } else {
      code = run_sta(a, session, out);
    }
    if (!opts.cache_dir.empty()) {
      // One machine-greppable summary of the persistent layer (CI's
      // cross-process warm-cache job asserts disk_misses=0 executed=0
      // on a second invocation). Stderr, so reports stay byte-stable.
      DiskCacheStats ds = session.disk_stats();
      err << "cache: dir=" << opts.cache_dir << " disk_hits=" << ds.hits
          << " disk_misses=" << ds.misses << " stores=" << ds.stores
          << " executed=" << session.executions() << "\n";
    }
    if (remote_exec) {
      // Per-endpoint dispatch accounting, same stderr-summary idiom as
      // the cache and serve lines (CI greps fallbacks=0 on the healthy
      // multi-daemon job).
      for (const auto& es : remote_exec->fleet().stats()) {
        err << "fleet: endpoint " << es.spec
            << " dispatched=" << es.dispatched
            << " completed=" << es.completed << " failed=" << es.failed
            << " quarantined=" << (es.quarantined ? 1 : 0)
            << " latency_ms=" << static_cast<std::uint64_t>(es.latency_ms)
            << "\n";
      }
      err << "fleet: local_fallbacks=" << remote_exec->local_fallbacks()
          << "\n";
    }
    return code;
  } catch (const Error& e) {
    return fail(err, e.what());
  }
}

}  // namespace rchls::api
