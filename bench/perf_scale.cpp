// perf_scale: engine cost growth on workloads 10-100x the paper's.
//
// The paper's benchmark graphs top out at a few dozen operations
// (fir16 = 34 nodes) and its campaigns at 16-bit adders. This harness
// drives the same three entry points the corpus exercises --
// find_design, sweep, inject -- through an api::Session on generated
// graphs of 128..1024 nodes (dfg::generate_random, the pinned seeded
// generator, so every run sizes the exact same graphs) and on injection
// campaigns up to the adders' 64-bit ceiling at 256k trials, and
// reports wall seconds per step. The point
// is the growth curve, not the absolute numbers: a superlinear blowup
// in the scheduler, binder or campaign loop shows up here long before
// it shows up on paper-sized inputs.
//
// Standalone harness (like perf_pool / perf_remote): prints one JSON
// document to stdout; the checked-in BENCH_scale.json is a captured
// run, validated by scripts/check_bench_json.py (sizes strictly
// increasing, timings positive, generator seed recorded). Usage:
//
//   ./build/perf_scale [--smoke]
//
// --smoke shrinks graph sizes, widths and trial counts so CI covers
// every lane in seconds. The session runs with its cache disabled:
// every timed step is a real engine execution, never a memo hit.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/request.hpp"
#include "api/result.hpp"
#include "api/session.hpp"
#include "dfg/generate.hpp"
#include "library/resource.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// One generator seed for the whole document, recorded in the JSON: the
// graphs a future run times are byte-identical to this run's.
constexpr std::uint64_t kSeed = 42;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Longest dependence path in nodes -- the latency floor with the paper
// library's delay-1 versions; bounds derive from it (same recipe as
// workload/corpus.cpp, restated here to keep the harness standalone).
std::size_t depth_of(const rchls::dfg::Graph& g) {
  std::vector<std::size_t> depth(g.node_count(), 1);
  std::size_t best = 1;
  for (rchls::dfg::NodeId id : g.topological_order()) {
    for (rchls::dfg::NodeId p : g.predecessors(id)) {
      depth[id] = std::max(depth[id], depth[p] + 1);
    }
    best = std::max(best, depth[id]);
  }
  return best;
}

rchls::dfg::Graph scale_graph(std::size_t nodes) {
  rchls::dfg::GeneratorConfig gc;
  gc.num_nodes = nodes;
  gc.seed = kSeed;
  gc.layer_width = 8.0;  // wide layers: resource contention dominates
  gc.mul_fraction = 0.25;
  return rchls::dfg::generate_random(gc);
}

// Area that fits ceil(ops/L) delay-1 units per class with margin
// (adder_2 area 2, mult_2 area 4) -- solvable but not loose.
double comfortable_area(const rchls::dfg::Graph& g, std::size_t lat) {
  std::size_t muls = g.count_ops(rchls::dfg::OpType::kMul);
  std::size_t adds = g.node_count() - muls;
  auto units = [lat](std::size_t ops) {
    return (ops + lat - 1) / lat;
  };
  return 2.0 * static_cast<double>(units(adds)) +
         4.0 * static_cast<double>(units(muls)) + 2.0;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: perf_scale [--smoke]\n";
      return 1;
    }
  }

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{32, 64}
            : std::vector<std::size_t>{128, 256, 512, 1024};
  // Widths stop at the adders' 64-bit ceiling; the trial count carries
  // the scaling load instead (the campaign is batched, so a 256k-trial
  // run still finishes in tens of milliseconds).
  const std::vector<int> widths =
      smoke ? std::vector<int>{4, 8} : std::vector<int>{8, 16, 32, 64};
  const std::size_t trials = smoke ? 1024 : 64 * 4096;

  rchls::api::SessionOptions opts;
  opts.enable_cache = false;  // every timed step really executes
  rchls::api::Session session(opts);
  rchls::library::ResourceLibrary lib = rchls::library::paper_library();

  auto doc = rchls::json::Value::object();
  doc.set("bench", "perf_scale")
      .set("smoke", smoke)
      .set("seed", std::to_string(kSeed))  // uint64: decimal string
      .set("hardware_concurrency",
           static_cast<std::uint64_t>(
               std::max(1u, std::thread::hardware_concurrency())));

  // find_design lane: one solve per graph size, comfortable bounds.
  auto fd_rows = rchls::json::Value::array();
  for (std::size_t n : sizes) {
    rchls::dfg::Graph g = scale_graph(n);
    std::size_t depth = depth_of(g);
    std::size_t lat = depth + depth / 4 + 2;

    rchls::api::FindDesignRequest req;
    req.graph = g;
    req.library = lib;
    req.latency_bound = static_cast<int>(lat);
    req.area_bound = comfortable_area(g, lat);
    req.engine = "centric";

    auto t0 = Clock::now();
    rchls::api::FindDesignResult res = session.run(req);
    double secs = seconds_since(t0);
    std::cerr << "perf_scale: find_design nodes=" << n << " seconds="
              << secs << " solved=" << res.solved << "\n";

    auto row = rchls::json::Value::object();
    row.set("nodes", static_cast<std::uint64_t>(g.node_count()))
        .set("edges", static_cast<std::uint64_t>(g.edge_count()))
        .set("depth", static_cast<std::uint64_t>(depth))
        .set("latency_bound", static_cast<std::uint64_t>(lat))
        .set("area_bound", req.area_bound)
        .set("solved", res.solved)
        .set("seconds", secs);
    fd_rows.push(std::move(row));
  }
  doc.set("find_design", std::move(fd_rows));

  // sweep lane: three latency points per graph size (tight, comfortable,
  // loose) -- the exploration loop's cost as the graph grows.
  auto sweep_rows = rchls::json::Value::array();
  for (std::size_t n : sizes) {
    rchls::dfg::Graph g = scale_graph(n);
    std::size_t depth = depth_of(g);
    std::size_t lat = depth + depth / 4 + 2;

    rchls::api::SweepRequest req;
    req.graph = g;
    req.library = lib;
    req.axis = rchls::api::SweepAxis::kLatency;
    req.latency_bounds = {static_cast<int>(depth + 1),
                          static_cast<int>(lat), static_cast<int>(2 * lat)};
    req.area_bounds = {comfortable_area(g, lat)};

    auto t0 = Clock::now();
    rchls::api::SweepResult res = session.run(req);
    double secs = seconds_since(t0);
    std::cerr << "perf_scale: sweep nodes=" << n << " points="
              << res.points.size() << " seconds=" << secs << "\n";

    auto row = rchls::json::Value::object();
    row.set("nodes", static_cast<std::uint64_t>(g.node_count()))
        .set("points", static_cast<std::uint64_t>(res.points.size()))
        .set("seconds", secs)
        .set("seconds_per_point",
             secs / static_cast<double>(res.points.size()));
    sweep_rows.push(std::move(row));
  }
  doc.set("sweep", std::move(sweep_rows));

  // inject lane: whole-circuit campaigns on the ripple-carry adder at
  // growing widths, fixed trial count -- cost per trial as the strike
  // population grows.
  auto inject_rows = rchls::json::Value::array();
  for (int w : widths) {
    rchls::api::InjectRequest req;
    req.component = "ripple_carry_adder";
    req.width = w;
    req.trials = trials;
    req.seed = kSeed;

    auto t0 = Clock::now();
    rchls::api::InjectResult res = session.run(req);
    double secs = seconds_since(t0);
    std::cerr << "perf_scale: inject width=" << w << " seconds=" << secs
              << "\n";

    auto row = rchls::json::Value::object();
    row.set("component", req.component)
        .set("width", static_cast<std::uint64_t>(w))
        .set("logic_gates", static_cast<std::uint64_t>(res.logic_gates))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("seconds", secs)
        .set("trials_per_s", static_cast<double>(trials) / secs);
    inject_rows.push(std::move(row));
  }
  doc.set("inject", std::move(inject_rows));

  std::cout << doc.dump(2) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perf_scale: " << e.what() << "\n";
  return 1;
}
