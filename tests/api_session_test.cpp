// Tests of the api facade: cache-key contract, hit/miss semantics, the
// determinism guarantee (cached results byte-identical to cold runs at
// any worker count), and the delta-recompute property (editing one
// action of a multi-action scenario recomputes only that action --
// asserted through Session cache stats), and one Session shared by
// concurrent callers.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/cache.hpp"
#include "api/session.hpp"
#include "api/wire.hpp"
#include "benchmarks/suite.hpp"
#include "hls/find_design.hpp"
#include "library/resource.hpp"
#include "parallel/config.hpp"
#include "scenario/parse.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "temp_dir.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rchls::api {
namespace {

// Restores the global worker count after a test that changes it.
class JobsGuard {
 public:
  JobsGuard() : saved_(parallel::global_config().jobs) {}
  ~JobsGuard() { parallel::global_config().jobs = saved_; }

 private:
  std::size_t saved_;
};

InjectRequest small_inject() {
  InjectRequest req;
  req.component = "ripple_carry_adder";
  req.width = 4;
  req.trials = 128;
  req.seed = 3;
  return req;
}

FindDesignRequest small_find_design() {
  FindDesignRequest req;
  req.graph = benchmarks::by_name("fig4_example");
  req.library = library::paper_library();
  req.latency_bound = 6;
  req.area_bound = 8.0;
  return req;
}

// ------------------------------------------------------------- cache key

TEST(ApiCacheKey, EqualRequestsShareAKey) {
  CacheKey a = key_of(small_find_design());
  CacheKey b = key_of(small_find_design());
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(to_hex64(a.digest).size(), 16u);
}

TEST(ApiCacheKey, EveryOptionFieldChangesTheKey) {
  const CacheKey base = key_of(small_find_design());

  auto differs = [&](const FindDesignRequest& req) {
    return key_of(req).canonical != base.canonical;
  };

  FindDesignRequest r = small_find_design();
  r.latency_bound = 7;
  EXPECT_TRUE(differs(r));

  r = small_find_design();
  r.area_bound = 8.5;
  EXPECT_TRUE(differs(r));

  r = small_find_design();
  r.engine = "combined";
  EXPECT_TRUE(differs(r));

  r = small_find_design();
  r.options.enable_polish = true;
  EXPECT_TRUE(differs(r));

  r = small_find_design();
  r.options.explore_tighter_latency = 2;
  EXPECT_TRUE(differs(r));

  r = small_find_design();
  r.baseline_versions = {{"adder_2", "mult_2"}};
  EXPECT_TRUE(differs(r));
}

TEST(ApiCacheKey, GraphAndLibraryContentArePartOfTheKey) {
  const CacheKey base = key_of(small_find_design());

  FindDesignRequest r = small_find_design();
  r.graph = benchmarks::by_name("diffeq");
  EXPECT_NE(key_of(r).canonical, base.canonical);

  r = small_find_design();
  library::ResourceLibrary lib;
  lib.add({"a1", library::ResourceClass::kAdder, 1.0, 1, 0.99});
  lib.add({"m1", library::ResourceClass::kMultiplier, 2.0, 1, 0.98});
  r.library = lib;
  EXPECT_NE(key_of(r).canonical, base.canonical);
}

TEST(ApiCacheKey, AdjacentStringFieldsCannotAlias) {
  // Length framing keeps distinct field tuples from encoding equally:
  // without it both pairs below would read "a b c".
  FindDesignRequest x = small_find_design();
  x.engine = "baseline";
  x.baseline_versions = {{"a b", "c"}};
  FindDesignRequest y = small_find_design();
  y.engine = "baseline";
  y.baseline_versions = {{"a", "b c"}};
  EXPECT_NE(key_of(x).canonical, key_of(y).canonical);
}

TEST(ApiCacheKey, RequestKindsNeverCollide) {
  InjectRequest in = small_inject();
  RankGatesRequest rg;
  rg.component = in.component;
  rg.width = in.width;
  rg.trials = in.trials;
  rg.seed = in.seed;
  // Same scalar fields, different kinds: the kind tag keeps them apart.
  EXPECT_NE(key_of(in).canonical, key_of(rg).canonical);
}

StaRequest small_sta() {
  StaRequest req;
  req.component = "ripple_carry_adder";
  req.width = 4;
  req.trials = 128;
  req.seed = 3;
  req.top = 5;
  return req;
}

TEST(ApiCacheKey, EveryStaFieldChangesTheKey) {
  const CacheKey base = key_of(small_sta());
  EXPECT_EQ(key_of(small_sta()).canonical, base.canonical);

  auto differs = [&](auto mutate) {
    StaRequest r = small_sta();
    mutate(r);
    EXPECT_NE(key_of(r).canonical, base.canonical);
  };
  differs([](StaRequest& r) { r.component = "brent_kung_adder"; });
  differs([](StaRequest& r) { r.width = 8; });
  differs([](StaRequest& r) { r.clock = 12.5; });
  differs([](StaRequest& r) { r.top_paths = 4; });
  differs([](StaRequest& r) { r.top = 6; });
  differs([](StaRequest& r) { r.trials = 256; });
  differs([](StaRequest& r) { r.seed = 4; });
}

TEST(ApiCacheKey, StaDoesNotCollideWithRankGates) {
  StaRequest sta = small_sta();
  RankGatesRequest rg;
  rg.component = sta.component;
  rg.width = sta.width;
  rg.trials = sta.trials;
  rg.seed = sta.seed;
  rg.top = sta.top;
  EXPECT_NE(key_of(sta).canonical, key_of(rg).canonical);
}

TEST(ApiCacheKey, ComponentTargetsIgnoreUnusedDesignContext) {
  // Backward compatibility: a component-shaped request keys exactly as it
  // did before graph targets existed -- the (empty) graph, library and
  // policy fields stay out of the encoding.
  StaRequest plain = small_sta();
  StaRequest with_context = small_sta();
  with_context.library = library::paper_library();
  with_context.versions = "most_reliable";
  EXPECT_EQ(key_of(with_context).canonical, key_of(plain).canonical);

  // Graph-shaped requests DO key on the policy (it changes the design).
  StaRequest fast;
  fast.graph = benchmarks::by_name("fig4_example");
  fast.library = library::paper_library();
  fast.width = 4;
  StaRequest reliable = fast;
  reliable.versions = "most_reliable";
  EXPECT_NE(key_of(fast).canonical, key_of(plain).canonical);
  EXPECT_NE(key_of(reliable).canonical, key_of(fast).canonical);
}

// ------------------------------------------------------------- hit/miss

TEST(ApiSession, SecondIdenticalRequestIsServedFromCache) {
  Session session;
  EXPECT_EQ(session.cache_stats().hits, 0u);

  InjectResult cold = session.run(small_inject());
  EXPECT_EQ(session.cache_stats().misses, 1u);
  EXPECT_EQ(session.cache_stats().entries, 1u);

  InjectResult warm = session.run(small_inject());
  EXPECT_EQ(session.cache_stats().hits, 1u);
  EXPECT_EQ(session.cache_stats().misses, 1u);
  EXPECT_EQ(session.cache_stats().entries, 1u);

  EXPECT_EQ(warm.result.propagated, cold.result.propagated);
  EXPECT_EQ(warm.result.logical_sensitivity,
            cold.result.logical_sensitivity);
  EXPECT_EQ(warm.gate_count, cold.gate_count);
}

TEST(ApiSession, StaResultsAreServedFromCache) {
  Session session;
  StaResult cold = session.run(small_sta());
  StaResult warm = session.run(small_sta());
  EXPECT_EQ(session.cache_stats().hits, 1u);
  EXPECT_EQ(session.executions(), 1u);
  EXPECT_EQ(warm.clock, cold.clock);
  EXPECT_EQ(warm.wns, cold.wns);
  ASSERT_EQ(warm.rows.size(), cold.rows.size());
  for (std::size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(warm.rows[i].gate, cold.rows[i].gate);
    EXPECT_EQ(warm.rows[i].sensitivity, cold.rows[i].sensitivity);
  }
}

TEST(ApiSession, DifferentOptionsMiss) {
  Session session;
  session.run(small_inject());
  InjectRequest other = small_inject();
  other.seed = 4;
  session.run(other);
  EXPECT_EQ(session.cache_stats().hits, 0u);
  EXPECT_EQ(session.cache_stats().misses, 2u);
  EXPECT_EQ(session.cache_stats().entries, 2u);
}

TEST(ApiSession, DisabledCacheAlwaysExecutes) {
  SessionOptions opts;
  opts.enable_cache = false;
  Session session(opts);
  session.run(small_inject());
  session.run(small_inject());
  EXPECT_EQ(session.cache_stats().hits, 0u);
  EXPECT_EQ(session.cache_stats().misses, 0u);
  EXPECT_EQ(session.cache_stats().entries, 0u);
}

TEST(ApiSession, ClearCacheForcesRecompute) {
  Session session;
  session.run(small_inject());
  session.clear_cache();
  EXPECT_EQ(session.cache_stats().entries, 0u);
  session.run(small_inject());
  EXPECT_EQ(session.cache_stats().hits, 0u);
  EXPECT_EQ(session.cache_stats().misses, 1u);
}

TEST(ApiSession, UnsolvedResultsAreCachedToo) {
  Session session;
  FindDesignRequest req = small_find_design();
  req.latency_bound = 1;
  req.area_bound = 1.0;
  FindDesignResult r1 = session.run(req);
  FindDesignResult r2 = session.run(req);
  EXPECT_FALSE(r1.solved);
  EXPECT_EQ(r2.no_solution_reason, r1.no_solution_reason);
  EXPECT_EQ(session.cache_stats().hits, 1u);
}

TEST(ApiSession, UnknownEngineThrowsAndCachesNothing) {
  Session session;
  FindDesignRequest req = small_find_design();
  req.engine = "quantum";
  EXPECT_THROW(session.run(req), Error);
  EXPECT_EQ(session.cache_stats().entries, 0u);
}

// --------------------------------------------------------- determinism

// Acceptance: cached reports are byte-identical to cold runs at any
// --jobs value. Three actions (synthesis, sweep, campaign) cover every
// cacheable result family that examples/*.scn exercise heavily.
TEST(ApiSession, CachedReportsAreByteIdenticalToColdRunsAtAnyJobs) {
  const std::string text =
      "scenario cache_determinism\n"
      "graph fig4_example\n"
      "bounds ok 6 8\n"
      "find_design ok\n"
      "sweep area 6,8,10 latency=6\n"
      "inject ripple_carry_adder width=4 trials=256 seed=5\n";
  scenario::Scenario scn = scenario::parse_string(text);

  JobsGuard guard;
  parallel::set_global_jobs(1);
  Session cold1;
  std::string json_cold_1 = scenario::report::to_json(run(scn, cold1));

  parallel::set_global_jobs(8);
  Session cold8;
  std::string json_cold_8 = scenario::report::to_json(run(scn, cold8));
  std::string json_warm_8 = scenario::report::to_json(run(scn, cold8));

  EXPECT_EQ(json_cold_1, json_cold_8);
  EXPECT_EQ(json_cold_8, json_warm_8);
  EXPECT_EQ(cold8.cache_stats().misses, 3u);
  EXPECT_EQ(cold8.cache_stats().hits, 3u);

  // And the warm pass at a different worker count still serves from
  // cache (keys contain no execution-environment fields).
  parallel::set_global_jobs(2);
  std::string json_warm_2 = scenario::report::to_json(run(scn, cold8));
  EXPECT_EQ(json_cold_8, json_warm_2);
  EXPECT_EQ(cold8.cache_stats().hits, 6u);
}

// ------------------------------------------------------ delta recompute

// Acceptance: editing one action of a multi-action scenario recomputes
// only that action on the warm re-run.
TEST(ApiSession, EditingOneActionRecomputesOnlyThatAction) {
  const std::string before =
      "scenario editme\n"
      "graph fig4_example\n"
      "find_design latency=6 area=8 label=a\n"
      "sweep area 6,8,10 latency=6 label=b\n"
      "inject ripple_carry_adder width=4 trials=128 label=c\n";
  // One edit: action b sweeps a different bound list.
  const std::string after =
      "scenario editme\n"
      "graph fig4_example\n"
      "find_design latency=6 area=8 label=a\n"
      "sweep area 6,8,10,12 latency=6 label=b\n"
      "inject ripple_carry_adder width=4 trials=128 label=c\n";

  Session session;
  scenario::run(scenario::parse_string(before), session);
  EXPECT_EQ(session.cache_stats().misses, 3u);
  EXPECT_EQ(session.cache_stats().hits, 0u);

  scenario::run(scenario::parse_string(after), session);
  EXPECT_EQ(session.cache_stats().misses, 4u) << "only 'b' recomputes";
  EXPECT_EQ(session.cache_stats().hits, 2u) << "'a' and 'c' are served";
  EXPECT_EQ(session.cache_stats().entries, 4u);
}

// Editing the scenario's graph (or library) must invalidate every
// synthesis action, but leaves graphless campaign actions cached.
TEST(ApiSession, EditingTheGraphInvalidatesSynthesisActionsOnly) {
  const std::string before =
      "graph fig4_example\n"
      "find_design latency=6 area=8 label=a\n"
      "inject ripple_carry_adder width=4 trials=128 label=c\n";
  const std::string after =
      "graph diffeq\n"
      "find_design latency=6 area=8 label=a\n"
      "inject ripple_carry_adder width=4 trials=128 label=c\n";

  Session session;
  scenario::run(scenario::parse_string(before), session);
  scenario::run(scenario::parse_string(after), session);
  EXPECT_EQ(session.cache_stats().misses, 3u);
  EXPECT_EQ(session.cache_stats().hits, 1u) << "inject stays cached";
}

// ------------------------------------------------------- thread safety

// One Session with a disk cache, shared by several threads running
// overlapping requests: every distinct request executes exactly once
// (disk-primed ones never), every answer is byte-identical to a serial
// Session's, and the per-call provenance adds up to the counters.
TEST(ApiSession, ConcurrentCallersShareOneSessionAndExecuteEachRequestOnce) {
  const std::filesystem::path dir =
      rchls::testing::unique_test_dir("api_session_test_tmp");
  std::vector<Request> reqs;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    InjectRequest r = small_inject();
    r.seed = seed;
    reqs.push_back(r);
  }
  for (double area : {8.0, 10.0}) {
    FindDesignRequest r = small_find_design();
    r.area_bound = area;
    reqs.push_back(r);
  }
  reqs.push_back(small_sta());
  StaRequest sta = small_sta();
  sta.seed = 9;
  reqs.push_back(sta);
  const std::size_t primed = 3;  // reqs[0..primed) start on disk

  std::vector<std::string> want;
  Session serial;
  for (const Request& r : reqs) want.push_back(wire::encode(serial.run(r)));

  SessionOptions opts;
  opts.cache_dir = dir.string();
  {
    Session primer(opts);
    for (std::size_t i = 0; i < primed; ++i) primer.run(reqs[i]);
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPasses = 2;
  Session shared(opts);
  struct Answer {
    std::size_t index;
    RunSource source;
    std::string bytes;
  };
  std::vector<std::vector<Answer>> answers(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread starts at a different request, so first lookups of
      // one key overlap across threads.
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t j = 0; j < reqs.size(); ++j) {
          const std::size_t i = (j + t * 2) % reqs.size();
          RunSource source = RunSource::kExecuted;
          Result r = shared.run(reqs[i], &source);
          answers[t].push_back({i, source, wire::encode(r)});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<std::size_t> executed(reqs.size(), 0);
  std::vector<std::size_t> from_disk(reqs.size(), 0);
  std::uint64_t memory = 0;
  std::uint64_t lookups = 0;
  for (const auto& per_thread : answers) {
    for (const Answer& a : per_thread) {
      ++lookups;
      EXPECT_EQ(a.bytes, want[a.index]) << "request " << a.index;
      switch (a.source) {
        case RunSource::kMemoryCache: ++memory; break;
        case RunSource::kDiskCache: ++from_disk[a.index]; break;
        case RunSource::kExecuted: ++executed[a.index]; break;
      }
    }
  }
  EXPECT_EQ(lookups, kThreads * kPasses * reqs.size());
  std::uint64_t executions = 0;
  std::uint64_t disk_hits = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(executed[i], i < primed ? 0u : 1u) << "request " << i;
    if (i < primed) EXPECT_GE(from_disk[i], 1u) << "request " << i;
    executions += executed[i];
    disk_hits += from_disk[i];
  }

  const CacheStats stats = shared.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.hits, memory);
  EXPECT_EQ(stats.misses, disk_hits + executions);
  EXPECT_EQ(stats.entries, reqs.size());
  EXPECT_EQ(shared.executions(), executions);
  EXPECT_EQ(shared.executions(), reqs.size() - primed);
  EXPECT_EQ(shared.disk_stats().hits, disk_hits);
  const SessionStats all = shared.stats();
  EXPECT_EQ(all.hits, stats.hits);
  EXPECT_EQ(all.disk_hits, disk_hits);
  EXPECT_EQ(all.executions, executions);

  // Warm now: a last pass is answered by memory alone.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    RunSource source = RunSource::kExecuted;
    EXPECT_EQ(wire::encode(shared.run(reqs[i], &source)), want[i]);
    EXPECT_EQ(source, RunSource::kMemoryCache) << "request " << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rchls::api
