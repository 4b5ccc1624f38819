// perf_pool: throughput of the parallel core after the relaxed-FIFO
// rewrite -- the PR-7 acceptance benchmark.
//
// Two layers are measured, matching the two layers the rewrite touched:
//
//   fifo.*  -- the RelaxedFifo overflow queue in isolation:
//       fill     single producer pushes until the ring refuses (the
//                bounded-capacity path), timed per push;
//       empty    consumer drains the pre-filled ring in whole-block
//                claims, timed per task;
//       prodcon  T producers against T consumers concurrently, ring
//                wrapping continuously -- the contended MPMC hot path.
//
//   pool.*  -- ThreadPool end to end (external submits cross the FIFO,
//       workers execute), weak scaling at 1..hardware_concurrency
//       workers: the per-worker task count is FIXED, so ideal scaling
//       is flat wall time as workers grow. The task grain sweeps
//       empty-task (pure dispatch overhead), a calibrated ~2us spin
//       (fine-grained compute), and a sweep-cell-sized piece of real
//       engine work (a small fault-injection campaign, about what one
//       exploration cell costs) -- the grains bracket what
//       parallel_for actually feeds the pool.
//
// Standalone harness (like perf_scale / perf_remote): prints one JSON
// document to stdout; the checked-in BENCH_pool.json is a captured
// run. Each pool row also records the pool-counter deltas
// (steals/overflow/blocks/wakeups) so the dispatch topology behind a
// number is visible. Usage:
//
//   ./build/perf_pool [--smoke]
//
// --smoke shrinks task counts so CI runs every mode and grain in
// seconds. Absolute numbers are machine-dependent (the JSON records
// hardware_concurrency; scaling claims are only meaningful when it
// exceeds the worker count); the per-grain overhead ratios and the
// weak-scaling curve are the interesting part.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/adders.hpp"
#include "parallel/config.hpp"
#include "parallel/relaxed_fifo.hpp"
#include "parallel/task_pool.hpp"
#include "ser/fault_injection.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rchls::parallel::RelaxedFifo;
using rchls::parallel::Task;
using rchls::parallel::ThreadPool;

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
// parallel_for internally, which detects it is on a pool worker and
// runs inline -- exactly what nested engine work does in production.
void sweep_cell_task(std::uint64_t seed) {
  rchls::netlist::Netlist nl = rchls::circuits::ripple_carry_adder(4);
  rchls::ser::InjectionConfig cfg;
  cfg.trials = 64;
  cfg.seed = seed + 1;
  auto r = rchls::ser::inject_campaign(nl, cfg);
  g_sink = static_cast<std::uint64_t>(r.propagated);
}

// ---------------------------------------------------------------- fifo lane

rchls::json::Value fifo_fill_and_empty(std::size_t blocks) {
  RelaxedFifo q(blocks);
  // fill: push until the ring refuses.
  auto t0 = Clock::now();
  std::size_t pushed = 0;
  for (;;) {
    Task t = [] {};
    if (!q.try_push(t)) break;
    ++pushed;
  }
  double fill_s = seconds_since(t0);

  // empty: drain the full ring in whole-block claims.
  t0 = Clock::now();
  std::deque<Task> out;
  std::size_t popped = 0;
  std::size_t handoffs = 0;
  for (;;) {
    out.clear();
    std::size_t n = q.pop_block(out);
    if (n == 0) break;
    popped += n;
    ++handoffs;
  }
  double empty_s = seconds_since(t0);

  auto fill = rchls::json::Value::object();
  fill.set("tasks", static_cast<std::uint64_t>(pushed))
      .set("seconds", fill_s)
      .set("tasks_per_s", fill_s > 0 ? static_cast<double>(pushed) / fill_s
                                     : 0.0)
      .set("capacity", static_cast<std::uint64_t>(q.capacity()));
  auto empty = rchls::json::Value::object();
  empty.set("tasks", static_cast<std::uint64_t>(popped))
      .set("seconds", empty_s)
      .set("tasks_per_s", empty_s > 0 ? static_cast<double>(popped) / empty_s
                                      : 0.0)
      .set("block_claims", static_cast<std::uint64_t>(handoffs));
  auto doc = rchls::json::Value::object();
  doc.set("fill", std::move(fill)).set("empty", std::move(empty));
  return doc;
}

rchls::json::Value fifo_prodcon(unsigned threads, std::size_t per_producer) {
  RelaxedFifo q(64);  // small enough to wrap many times per run
  const std::size_t total = per_producer * threads;
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> popped{0};

  auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(2 * threads);
  for (unsigned p = 0; p < threads; ++p) {
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        Task t = [&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        };
        while (!q.try_push(t)) std::this_thread::yield();
      }
    });
  }
  for (unsigned c = 0; c < threads; ++c) {
    pool.emplace_back([&] {
      std::deque<Task> out;
      while (popped.load() < total) {
        out.clear();
        if (std::size_t n = q.pop_block(out)) {
          for (Task& t : out) t();
          popped.fetch_add(n);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  double s = seconds_since(t0);

  auto doc = rchls::json::Value::object();
  doc.set("threads_each_side", static_cast<std::uint64_t>(threads))
      .set("tasks", static_cast<std::uint64_t>(executed.load()))
      .set("seconds", s)
      .set("tasks_per_s",
           s > 0 ? static_cast<double>(executed.load()) / s : 0.0);
  return doc;
}

// ---------------------------------------------------------------- pool lane

rchls::json::Value pool_weak_scaling(unsigned workers, const std::string& grain,
                                     std::uint64_t spin, std::size_t per_worker) {
  rchls::parallel::reset_pool_stats();
  const std::size_t total = per_worker * workers;
  std::atomic<std::size_t> done{0};
  double s;
  {
    ThreadPool pool(workers);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < total; ++i) {
      if (grain == "empty") {
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      } else if (grain == "spin") {
        pool.submit([&done, spin] {
          spin_iters(spin);
          done.fetch_add(1, std::memory_order_relaxed);
        });
      } else {  // "cell"
        pool.submit([&done, i] {
          sweep_cell_task(static_cast<std::uint64_t>(i));
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    pool.wait_idle();
    s = seconds_since(t0);
  }
  rchls::parallel::PoolStats st = rchls::parallel::pool_stats();

  auto stats = rchls::json::Value::object();
  stats.set("tasks_executed", st.tasks_executed)
      .set("steals", st.steals)
      .set("overflow_pushes", st.overflow_pushes)
      .set("overflow_pops", st.overflow_pops)
      .set("block_handoffs", st.block_handoffs)
      .set("idle_wakeups", st.idle_wakeups)
      .set("full_retries", st.full_retries);
  auto doc = rchls::json::Value::object();
  doc.set("workers", static_cast<std::uint64_t>(workers))
      .set("grain", grain)
      .set("tasks", static_cast<std::uint64_t>(done.load()))
      .set("seconds", s)
      .set("tasks_per_s", s > 0 ? static_cast<double>(done.load()) / s : 0.0)
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
  const std::size_t prodcon_per_producer = smoke ? 2000 : 50000;
  const std::size_t pool_per_worker = smoke ? 500 : 20000;
  const std::size_t cell_per_worker = smoke ? 16 : 256;
  std::uint64_t spin = calibrate_spin();

  auto doc = rchls::json::Value::object();
  doc.set("bench", "perf_pool")
      .set("smoke", smoke)
      .set("hardware_concurrency", static_cast<std::uint64_t>(hw))
      .set("block_size",
           static_cast<std::uint64_t>(RelaxedFifo::kBlockSize))
      .set("spin_iters_2us", spin);

  // fifo lane: uncontended fill/empty, then contended prodcon across the
  // thread sweep.
  auto fifo = fifo_fill_and_empty(/*blocks=*/256);
  auto prodcon = rchls::json::Value::array();
  for (unsigned t : thread_sweep(hw)) {
    auto row = fifo_prodcon(t, prodcon_per_producer);
    std::cerr << "perf_pool: fifo prodcon threads=" << t << "x2 tasks_per_s="
              << row.at("tasks_per_s").as_double() << "\n";
    prodcon.push(std::move(row));
  }
  fifo.set("prodcon", std::move(prodcon));
  doc.set("fifo", std::move(fifo));

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
