// perf_pool: throughput of the engine pool behind parallel_for.
//
// pool.*  -- parallel_for(workers * per_worker, fn, workers) end to end,
//     weak scaling at 1..hardware_concurrency workers: the per-worker
//     index count is FIXED, so ideal scaling is flat wall time as
//     workers grow (at 1 worker the region runs inline, the no-pool
//     baseline). The grain sweeps an empty fn (pure dispatch
//     overhead), a calibrated ~2us spin (fine-grained compute), and a
//     sweep-cell-sized piece of real engine work (a small
//     fault-injection campaign, about what one exploration cell costs)
//     -- the grains bracket what parallel_for actually runs.
//
// Standalone harness (like perf_scale / perf_remote): prints one JSON
// document to stdout; the checked-in BENCH_pool.json is a captured
// run. Each row records `done`, the number of fn calls, which must
// equal `tasks`, and the pool-counter deltas over the timed region
// (tasks executed, idle wakeups, steals). The program uses only
// parallel_for and pool_stats(), so it builds on any version of the
// pool. Usage:
//
//   ./build/perf_pool [--smoke]
//
// --smoke shrinks task counts so CI runs every grain in seconds.
// Absolute numbers are machine-dependent (the JSON records
// hardware_concurrency; scaling claims are only meaningful when it
// exceeds the worker count); the per-grain overhead ratios and the
// weak-scaling curve are the interesting part.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/adders.hpp"
#include "parallel/config.hpp"
#include "parallel/parallel_for.hpp"
#include "ser/fault_injection.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Thread counts swept: powers of two up to hardware_concurrency, plus
// the concurrency itself. On a 1-core host this is just {1} -- recorded
// honestly rather than pretending at parallelism the machine lacks.
std::vector<unsigned> thread_sweep(unsigned hw) {
  std::vector<unsigned> out;
  for (unsigned t = 1; t < hw; t *= 2) out.push_back(t);
  out.push_back(hw);
  return out;
}

// ------------------------------------------------------------- task grains

volatile std::uint64_t g_sink = 0;  // defeats spin-loop elision

void spin_iters(std::uint64_t iters) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc += i * 2654435761u;
  g_sink = acc;
}

// Calibrate the spin grain to ~2us of this machine's arithmetic.
std::uint64_t calibrate_spin() {
  std::uint64_t iters = 1 << 14;
  for (;;) {
    auto t0 = Clock::now();
    spin_iters(iters);
    double s = seconds_since(t0);
    if (s > 1e-4) {
      return std::max<std::uint64_t>(
          32, static_cast<std::uint64_t>(static_cast<double>(iters) *
                                         (2e-6 / s)));
    }
    iters <<= 1;
  }
}

// Sweep-cell-sized engine work: a small injection campaign on a 4-bit
// adder costs about what one exploration sweep cell does. It calls
// parallel_for internally, which detects it is inside a region and runs
// inline -- exactly what nested engine work does in production.
void sweep_cell_task(std::uint64_t seed) {
  rchls::netlist::Netlist nl = rchls::circuits::ripple_carry_adder(4);
  rchls::ser::InjectionConfig cfg;
  cfg.trials = 64;
  cfg.seed = seed + 1;
  auto r = rchls::ser::inject_campaign(nl, cfg);
  g_sink = static_cast<std::uint64_t>(r.propagated);
}

// ---------------------------------------------------------------- pool lane

rchls::json::Value pool_weak_scaling(unsigned workers, const std::string& grain,
                                     std::uint64_t spin, std::size_t per_worker) {
  const std::size_t total = per_worker * workers;
  std::atomic<std::size_t> done{0};
  std::function<void(std::size_t)> fn;
  if (grain == "empty") {
    fn = [&done](std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    };
  } else if (grain == "spin") {
    fn = [&done, spin](std::size_t) {
      spin_iters(spin);
      done.fetch_add(1, std::memory_order_relaxed);
    };
  } else {  // "cell"
    fn = [&done](std::size_t i) {
      sweep_cell_task(static_cast<std::uint64_t>(i));
      done.fetch_add(1, std::memory_order_relaxed);
    };
  }
  // Start the workers outside the timed region.
  rchls::parallel::parallel_for(
      workers, [](std::size_t) {}, workers);

  rchls::parallel::PoolStats before = rchls::parallel::pool_stats();
  auto t0 = Clock::now();
  rchls::parallel::parallel_for(total, fn, workers);
  double s = seconds_since(t0);
  rchls::parallel::PoolStats after = rchls::parallel::pool_stats();

  auto stats = rchls::json::Value::object();
  stats.set("tasks_executed", after.tasks_executed - before.tasks_executed)
      .set("idle_wakeups", after.idle_wakeups - before.idle_wakeups)
      .set("steals", after.steals - before.steals);
  auto doc = rchls::json::Value::object();
  doc.set("workers", static_cast<std::uint64_t>(workers))
      .set("grain", grain)
      .set("tasks", static_cast<std::uint64_t>(total))
      .set("done", static_cast<std::uint64_t>(done.load()))
      .set("seconds", s)
      .set("tasks_per_s", s > 0 ? static_cast<double>(total) / s : 0.0)
      .set("pool_stats", std::move(stats));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: perf_pool [--smoke]\n";
      return 1;
    }
  }

  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t pool_per_worker = smoke ? 500 : 20000;
  const std::size_t cell_per_worker = smoke ? 16 : 256;
  std::uint64_t spin = calibrate_spin();

  auto doc = rchls::json::Value::object();
  doc.set("bench", "perf_pool")
      .set("smoke", smoke)
      .set("hardware_concurrency", static_cast<std::uint64_t>(hw))
      .set("spin_iters_2us", spin);

  // pool lane: weak scaling per grain.
  auto pool_rows = rchls::json::Value::array();
  for (unsigned w : thread_sweep(hw)) {
    for (const char* grain : {"empty", "spin", "cell"}) {
      std::size_t per_worker =
          std::string(grain) == "cell" ? cell_per_worker : pool_per_worker;
      auto row = pool_weak_scaling(w, grain, spin, per_worker);
      std::cerr << "perf_pool: pool workers=" << w << " grain=" << grain
                << " tasks_per_s=" << row.at("tasks_per_s").as_double() << "\n";
      pool_rows.push(std::move(row));
    }
  }
  doc.set("pool", std::move(pool_rows));

  std::cout << doc.dump(2) << "\n";
  return 0;
}
