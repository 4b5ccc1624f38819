#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "benchmarks/suite.hpp"
#include "circuits/adders.hpp"
#include "hls/exhaustive.hpp"
#include "hls/explore.hpp"
#include "library/resource.hpp"
#include "parallel/config.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"
#include "ser/fault_injection.hpp"
#include "util/error.hpp"

namespace rchls::parallel {
namespace {

// ------------------------------------------------------------- partitioner

TEST(Partitioner, ChunksAreLaneAlignedAndCoverTheBudget) {
  auto chunks = partition_trials(64 * 100 + 7, 1);
  ASSERT_FALSE(chunks.empty());
  std::size_t total = 0;
  std::size_t expected_first = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.trials % kLanes, 0u);
    EXPECT_EQ(c.first_trial, expected_first);
    expected_first += c.trials;
    total += c.trials;
  }
  // Rounded up to the next lane multiple, exactly as the campaign reports.
  EXPECT_EQ(total, (64u * 100 + 7 + 63) / 64 * 64);
}

TEST(Partitioner, LayoutIsIndependentOfWorkerCount) {
  // The partition takes no worker count at all -- assert the layout is a
  // pure function of (trials, seed).
  auto a = partition_trials(64 * 1000, 7);
  auto b = partition_trials(64 * 1000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first_trial, b[i].first_trial);
    EXPECT_EQ(a[i].trials, b[i].trials);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(Partitioner, ChunkSeedsAreDistinctStreams) {
  auto chunks = partition_trials(64 * 1000, 42);
  std::set<std::uint64_t> seeds;
  for (const auto& c : chunks) seeds.insert(c.seed);
  EXPECT_EQ(seeds.size(), chunks.size());
  // And distinct from the campaign seed itself.
  EXPECT_EQ(seeds.count(42), 0u);
}

TEST(Partitioner, RangesTileTheIndexSpace) {
  auto ranges = partition_range(1001, 8, 16);
  ASSERT_FALSE(ranges.empty());
  std::uint64_t expected_begin = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_LT(r.begin, r.end);
    expected_begin = r.end;
  }
  EXPECT_EQ(ranges.back().end, 1001u);
}

// ------------------------------------------------------------ parallel_for

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, jobs);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelFor, MapKeepsResultsInIndexOrder) {
  auto out = parallel_map(
      100, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::size_t i) {
            if (i % 7 == 3) throw Error("boom");
          },
          4),
      Error);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  // A parallel_for launched from inside a pool worker must not spin up a
  // second pool (oversubscription / deadlock risk); it runs sequentially.
  std::atomic<int> total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        parallel_for(
            8, [&](std::size_t) { ++total; }, 8);
      },
      2);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, RegionNeverRunsMoreThanJobsAtOnce) {
  // A region runs jobs - 1 runners plus its caller, however many workers
  // the pool holds: the first region grows the pool past the later ones.
  for (std::size_t jobs : {8, 2, 3}) {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    parallel_for(
        64,
        [&](std::size_t) {
          int now = ++running;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          --running;
        },
        jobs);
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), static_cast<int>(jobs)) << "jobs " << jobs;
  }
}

TEST(ThreadPool, SaturatedPoolWithUnevenTasksFinishesEverything) {
  // Stress: many more indices than workers, with wildly uneven grains,
  // some of which open nested regions (those run inline).
  std::atomic<std::size_t> done{0};
  parallel_for(
      500,
      [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(i % 13 == 0 ? 500 : (i % 7) * 10));
        if (i % 50 == 0) {
          parallel_for(
              20, [&](std::size_t) { ++done; }, 8);
        }
        ++done;
      },
      8);
  EXPECT_EQ(done.load(), 500u + 10u * 20u);
}

TEST(ThreadPool, CountersCountPooledIndicesAndNeverSteal) {
  PoolStats before = pool_stats();
  parallel_for(
      200, [](std::size_t) {}, 4);
  PoolStats pooled = pool_stats();
  EXPECT_EQ(pooled.tasks_executed - before.tasks_executed, 200u);
  // A one-job region runs inline and never reaches the pool.
  parallel_for(
      200, [](std::size_t) {}, 1);
  PoolStats after = pool_stats();
  EXPECT_EQ(after.tasks_executed, pooled.tasks_executed);
  EXPECT_GE(after.idle_wakeups, before.idle_wakeups);
  EXPECT_EQ(after.steals, 0u);
}

TEST(ThreadPool, RandomizedSubmissionBurstsLoseNothing) {
  // Three threads launch regions of random size and width at once, so
  // regions of different widths overlap on the one pool; every index of
  // every region must run exactly once.
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (unsigned t = 0; t < 3; ++t) {
    callers.emplace_back([&wrong, t] {
      std::mt19937_64 rng(7 + t);
      for (int round = 0; round < 300; ++round) {
        std::size_t n = 1 + static_cast<std::size_t>(rng() % 64);
        std::size_t jobs = 1 + static_cast<std::size_t>(rng() % 8);
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h = 0;
        parallel_for(
            n, [&](std::size_t i) { ++hits[i]; }, jobs);
        for (auto& h : hits) {
          if (h.load() != 1) ++wrong;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
}

// ------------------------------------------------- determinism end-to-end

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t jobs) { set_global_jobs(jobs); }
  ~JobsGuard() { set_global_jobs(0); }
};

TEST(Determinism, SweepsAreBitIdenticalAtAnyWorkerCount) {
  auto g = benchmarks::fir16();
  auto lib = library::paper_library();

  std::vector<std::vector<hls::SweepPoint>> runs;
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    runs.push_back(hls::latency_sweep(g, lib, {10, 12, 14, 16}, 10.0));
    auto area_points = hls::area_sweep(g, lib, 12, {8.0, 10.0, 12.0});
    runs.back().insert(runs.back().end(), area_points.begin(),
                       area_points.end());
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].latency_bound, runs[0][i].latency_bound);
      EXPECT_EQ(runs[r][i].area_bound, runs[0][i].area_bound);
      EXPECT_EQ(runs[r][i].reliability, runs[0][i].reliability);
      EXPECT_EQ(runs[r][i].area, runs[0][i].area);
      EXPECT_EQ(runs[r][i].latency, runs[0][i].latency);
    }
  }
}

TEST(Determinism, ComparisonGridIsBitIdenticalAtAnyWorkerCount) {
  auto g = benchmarks::diffeq();
  auto lib = library::paper_library();

  std::vector<std::string> csvs;
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    csvs.push_back(
        hls::to_csv(hls::comparison_grid(g, lib, {6, 7}, {8.0, 12.0})));
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST(Determinism, InjectionCampaignIsBitIdenticalAtAnyWorkerCount) {
  netlist::Netlist nl = circuits::kogge_stone_adder(8);
  ser::InjectionConfig cfg;
  cfg.trials = 64 * 64;
  cfg.seed = 123;

  std::vector<ser::InjectionResult> results;
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    results.push_back(ser::inject_campaign(nl, cfg));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[r].trials, results[0].trials);
    EXPECT_EQ(results[r].propagated, results[0].propagated);
    EXPECT_EQ(results[r].logical_sensitivity,
              results[0].logical_sensitivity);
    EXPECT_EQ(results[r].susceptibility, results[0].susceptibility);
    EXPECT_EQ(results[r].half_width_95, results[0].half_width_95);
  }
}

TEST(Determinism, ExhaustiveSearchIsBitIdenticalAtAnyWorkerCount) {
  auto g = benchmarks::diffeq();
  auto lib = library::paper_library();

  std::vector<hls::Design> designs;
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    designs.push_back(hls::exhaustive_find_design(g, lib, 7, 12.0));
  }
  for (std::size_t r = 1; r < designs.size(); ++r) {
    EXPECT_EQ(designs[r].reliability, designs[0].reliability);
    EXPECT_EQ(designs[r].area, designs[0].area);
    EXPECT_EQ(designs[r].latency, designs[0].latency);
    EXPECT_EQ(designs[r].version_of, designs[0].version_of);
  }
}

}  // namespace
}  // namespace rchls::parallel
