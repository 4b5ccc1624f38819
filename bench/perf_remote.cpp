// perf_remote: fleet throughput of the remote executor -- the PR-9
// acceptance benchmark.
//
// Runs fleets of 1/2/4 in-process `rchls serve` daemons on unix
// sockets and drives them through the production remote path
// (remote::Fleet dispatch + remote::RemoteExecutor sweep sharding) --
// framing, least-outstanding routing, connection pooling and
// index-ordered merging are all on the measured path; only the process
// boundary is elided. Every fleet size measures two passes:
//
//   cold: requests no daemon has seen -> every one executes somewhere
//         in the fleet (throughput should grow with daemons: cold work
//         is engine-bound and daemons execute independently);
//   warm: the identical requests again. The daemons of a fleet SHARE
//         one cache directory, so a warm request is answered from
//         cache by WHICHEVER daemon the fleet routes it to -- memory
//         on a repeat daemon, disk otherwise -- and the acceptance
//         criterion is executed=0 across the whole fleet on this pass
//         (the JSON records the fleet-wide execution delta so the
//         claim is checkable).
//
// Each pass is two phases: a request phase (2 client threads per
// daemon calling Fleet::call synchronously -> rps + per-request
// p50/p95) and a sweep phase (one 8-cell sweep sharded across the
// fleet by RemoteExecutor -> wall time + mean slice round-trip from
// the fleet's latency counters).
//
// Standalone harness (like perf_pool): prints one JSON document to
// stdout; the checked-in BENCH_remote.json is a captured run. Usage:
//
//   ./build/perf_remote [--smoke]
//
// --smoke shrinks the per-client request count so CI can run every
// fleet size, both passes and the executed=0 assertion in seconds.
// Absolute numbers are machine-dependent; the cold-vs-warm ratio and
// the cold scaling across fleet sizes are the interesting part.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/request.hpp"
#include "benchmarks/suite.hpp"
#include "library/resource.hpp"
#include "remote/executor.hpp"
#include "remote/fleet.hpp"
#include "serve/server.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double percentile_ms(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

// Cheap but real engine work: distinct seeds per (level, client,
// index) make every request cold exactly once per level; the warm pass
// replays the same seeds.
rchls::api::Request workload_request(int level, int client, int index) {
  rchls::api::InjectRequest req;
  req.component = "ripple_carry_adder";
  req.width = 4;
  req.trials = 256;
  req.seed = static_cast<std::uint64_t>(level) * 1000000 +
             static_cast<std::uint64_t>(client) * 1000 +
             static_cast<std::uint64_t>(index) + 1;
  return rchls::api::Request(req);
}

rchls::api::SweepRequest sweep_request() {
  rchls::api::SweepRequest req;
  req.graph = rchls::benchmarks::by_name("fig4_example");
  req.library = rchls::library::paper_library();
  req.axis = rchls::api::SweepAxis::kArea;
  req.latency_bounds = {6};
  req.area_bounds = {5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0};
  return req;
}

// One daemon fleet, torn down per level so every fleet size starts
// cold.
struct Level {
  std::vector<std::unique_ptr<rchls::serve::Server>> daemons;
  std::unique_ptr<rchls::remote::RemoteExecutor> remote;

  std::uint64_t executions() const {
    std::uint64_t total = 0;
    for (const auto& d : daemons) total += d->executions();
    return total;
  }
};

Level start_level(const std::filesystem::path& dir, int endpoints) {
  Level level;
  rchls::remote::RemoteOptions ro;
  for (int i = 0; i < endpoints; ++i) {
    rchls::serve::ServerOptions so;
    so.socket_path = (dir / ("d" + std::to_string(i) + ".sock")).string();
    so.workers = 4;
    // The SHARED cache directory: what one daemon executed, every
    // daemon can answer -- the warm pass's executed=0 works at any
    // routing.
    so.session.cache_dir = (dir / "cache").string();
    level.daemons.push_back(
        std::make_unique<rchls::serve::Server>(std::move(so)));
    ro.fleet.endpoints.push_back(
        rchls::remote::parse_endpoint(level.daemons.back()->socket_path()));
  }
  level.remote = std::make_unique<rchls::remote::RemoteExecutor>(ro);
  return level;
}

struct PassResult {
  double seconds = 0.0;  // request phase wall time
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::uint64_t requests = 0;
  double sweep_seconds = 0.0;
  std::uint64_t sweep_cells = 0;
  std::uint64_t sweep_slices = 0;
  double slice_latency_avg_ms = 0.0;  // mean slice round-trip
  std::uint64_t executed = 0;         // fleet-wide execution delta
};

PassResult run_pass(Level& level, int level_no, int per_client) {
  const int endpoints = static_cast<int>(level.daemons.size());
  const int clients = 2 * endpoints;
  const std::uint64_t executed_before = level.executions();
  rchls::remote::Fleet& fleet = level.remote->fleet();

  // Phase 1: synchronous fleet calls from independent client threads.
  std::vector<std::vector<double>> latencies(clients);
  auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        auto r0 = Clock::now();
        fleet.call(workload_request(level_no, c, i));
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - r0)
                .count());
      }
    });
  }
  for (auto& th : pool) th.join();

  PassResult pass;
  pass.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  pass.requests = all.size();
  pass.requests_per_s =
      pass.seconds > 0 ? static_cast<double>(all.size()) / pass.seconds : 0;
  pass.p50_ms = percentile_ms(all, 0.50);
  pass.p95_ms = percentile_ms(all, 0.95);

  // Phase 2: one sweep sharded across the fleet. Slice latency is the
  // fleet's completed-call latency delta over the sweep.
  double lat_before = 0.0, lat_after = 0.0;
  std::uint64_t done_before = 0, done_after = 0;
  for (const auto& s : fleet.stats()) {
    lat_before += s.latency_ms;
    done_before += s.completed;
  }
  rchls::api::SweepRequest sweep = sweep_request();
  auto s0 = Clock::now();
  rchls::api::SweepResult result = level.remote->run(sweep);
  pass.sweep_seconds = std::chrono::duration<double>(Clock::now() - s0).count();
  pass.sweep_cells = result.points.size();
  for (const auto& s : fleet.stats()) {
    lat_after += s.latency_ms;
    done_after += s.completed;
  }
  pass.sweep_slices = done_after - done_before;
  pass.slice_latency_avg_ms =
      pass.sweep_slices > 0
          ? (lat_after - lat_before) / static_cast<double>(pass.sweep_slices)
          : 0.0;

  pass.executed = level.executions() - executed_before;
  return pass;
}

rchls::json::Value to_json(const PassResult& pass) {
  auto sweep = rchls::json::Value::object();
  sweep.set("cells", pass.sweep_cells)
      .set("slices", pass.sweep_slices)
      .set("seconds", pass.sweep_seconds)
      .set("slice_latency_avg_ms", pass.slice_latency_avg_ms);
  auto doc = rchls::json::Value::object();
  doc.set("requests", pass.requests)
      .set("seconds", pass.seconds)
      .set("requests_per_s", pass.requests_per_s)
      .set("p50_ms", pass.p50_ms)
      .set("p95_ms", pass.p95_ms)
      .set("sweep", std::move(sweep))
      .set("executed", pass.executed);
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: perf_remote [--smoke]\n";
      return 1;
    }
  }
  const int per_client = smoke ? 4 : 32;

  const std::filesystem::path work_dir =
      std::filesystem::temp_directory_path() /
      ("rchls-perf-remote-" + std::to_string(rchls::current_pid()));
  std::filesystem::create_directories(work_dir);

  auto doc = rchls::json::Value::object();
  doc.set("bench", "perf_remote")
      .set("smoke", smoke)
      .set("requests_per_client", per_client)
      .set("clients_per_endpoint", 2);

  bool warm_executed_clean = true;
  auto levels = rchls::json::Value::array();
  int level_no = 0;
  for (int endpoints : {1, 2, 4}) {
    const std::filesystem::path level_dir =
        work_dir / ("level" + std::to_string(endpoints));
    std::filesystem::create_directories(level_dir);
    Level level = start_level(level_dir, endpoints);

    PassResult cold = run_pass(level, level_no, per_client);
    PassResult warm = run_pass(level, level_no, per_client);
    ++level_no;
    warm_executed_clean = warm_executed_clean && warm.executed == 0;

    auto entry = rchls::json::Value::object();
    entry.set("endpoints", endpoints)
        .set("clients", 2 * endpoints)
        .set("cold", to_json(cold))
        .set("warm", to_json(warm));
    levels.push(std::move(entry));
    std::cerr << "perf_remote: endpoints=" << endpoints
              << " cold_rps=" << cold.requests_per_s
              << " warm_rps=" << warm.requests_per_s
              << " slice_ms=" << cold.slice_latency_avg_ms
              << " warm_executed=" << warm.executed << "\n";

    for (auto& d : level.daemons) d->stop();
  }
  doc.set("levels", std::move(levels));
  // The acceptance bit: every warm pass replayed its level's exact cold
  // workload against a fleet sharing one cache directory, so a single
  // execution here is a cache or routing defect.
  doc.set("warm_executed_total_is_zero", warm_executed_clean);

  std::filesystem::remove_all(work_dir);
  std::cout << doc.dump(2) << "\n";
  return warm_executed_clean ? 0 : 1;
}
