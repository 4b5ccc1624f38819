#include <gtest/gtest.h>

#include <cmath>

#include "benchmarks/suite.hpp"
#include "dfg/timing.hpp"
#include "hls/combined.hpp"
#include "hls/explore.hpp"
#include "hls/find_design.hpp"
#include "util/error.hpp"

namespace rchls::hls {
namespace {

using library::ResourceLibrary;

constexpr double kUniformFig4 = 0.82783;   // 0.969^6  (paper Fig 5a)
constexpr double kUniformFir = 0.48467;    // 0.969^23 (paper Fig 7a)

TEST(FindDesign, UnconstrainedUsesMostReliableVersionsOnly) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  // Generous bounds: the initial all-most-reliable solution stands.
  Design d = find_design(g, lib, 100, 1000.0);
  validate_design(d, g, lib);
  EXPECT_NEAR(d.reliability, std::pow(0.999, 23), 1e-12);
}

TEST(FindDesign, RespectsBoundsOnAllBenchmarks) {
  ResourceLibrary lib = library::paper_library();
  int solved = 0;
  for (const auto& name : benchmarks::all_names()) {
    auto g = benchmarks::by_name(name);
    // A mid-tight setting: fastest-version min latency + 2, area 20.
    // (ar_lattice is infeasible below ~20 here: its two multiply stages
    // force four multiplier instances at this latency.)
    std::vector<library::VersionId> fastest(g.node_count());
    for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
      fastest[id] = lib.fastest(library::class_of(g.node(id).op));
    }
    int lmin = dfg::asap_latency(g, delays_for(g, lib, fastest));
    try {
      Design d = find_design(g, lib, lmin + 2, 20.0);
      validate_design(d, g, lib);
      EXPECT_LE(d.latency, lmin + 2) << name;
      EXPECT_LE(d.area, 20.0 + 1e-9) << name;
      ++solved;
    } catch (const NoSolutionError&) {
      // acceptable for genuinely infeasible bound combinations
    }
  }
  EXPECT_GE(solved, 4);
}

TEST(FindDesign, BeatsUniformFastestOnFig4WithSlack) {
  // At Ld = 6, Ad = 4 the mixed design dominates the uniform type-2 one
  // (paper Fig. 5; see EXPERIMENTS.md on the +1 latency-semantics shift).
  auto g = benchmarks::fig4_example();
  ResourceLibrary lib = library::paper_library();
  Design d = find_design(g, lib, 6, 4.0);
  validate_design(d, g, lib);
  EXPECT_LE(d.area, 4.0 + 1e-9);
  EXPECT_GT(d.reliability, kUniformFig4);
}

TEST(FindDesign, BeatsUniformFastestOnFir) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  Design d = find_design(g, lib, 12, 8.0);
  validate_design(d, g, lib);
  EXPECT_LE(d.area, 8.0 + 1e-9);
  EXPECT_LE(d.latency, 12);
  EXPECT_GT(d.reliability, kUniformFir);
}

TEST(FindDesign, ThrowsWhenLatencyUnreachable) {
  auto g = benchmarks::fir16();  // fastest-version chain depth is 9
  ResourceLibrary lib = library::paper_library();
  EXPECT_THROW(find_design(g, lib, 5, 100.0), NoSolutionError);
}

TEST(FindDesign, ThrowsWhenAreaUnreachable) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  // Less area than one adder + one multiplier (1 + 2 = 3) can ever provide.
  EXPECT_THROW(find_design(g, lib, 60, 2.0), NoSolutionError);
}

TEST(FindDesign, RejectsBadArguments) {
  auto g = benchmarks::diffeq();
  ResourceLibrary lib = library::paper_library();
  // NoSolutionError derives from Error: a bad argument must not be reported
  // as "no solution".
  auto expect_argument_error = [](const auto& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << ": accepted";
    } catch (const NoSolutionError& e) {
      ADD_FAILURE() << what << ": reported as no solution: " << e.what();
    } catch (const Error&) {
    }
  };
  FindDesignOptions explore;
  explore.explore_tighter_latency = 2;
  expect_argument_error([&] { find_design(g, lib, 0, 8.0); }, "latency 0");
  expect_argument_error([&] { find_design(g, lib, 0, 8.0, explore); },
                        "latency 0, explore 2");
  expect_argument_error([&] { find_design(g, lib, 8, 0.0); }, "area 0");
  dfg::Graph empty("empty");
  expect_argument_error([&] { find_design(empty, lib, 8, 8.0); },
                        "empty graph");
  expect_argument_error(
      [&] { find_design(g, ResourceLibrary{}, 8, 8.0); }, "empty library");
  expect_argument_error([&] { combined_design(g, lib, 0, 8.0); },
                        "combined, latency 0");
  expect_argument_error([&] { combined_design(g, lib, 8, -1.0); },
                        "combined, area -1");
  expect_argument_error([&] { latency_sweep(g, lib, {8, 0}, 8.0); },
                        "latency sweep over bound 0");
}

TEST(FindDesign, LooserAreaNeverReducesReliabilityMuch) {
  // The heuristic is not provably monotone, but loosening the area bound
  // should never cost more than a whisker on these benchmarks.
  auto g = benchmarks::diffeq();
  ResourceLibrary lib = library::paper_library();
  std::vector<library::VersionId> fastest(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    fastest[id] = lib.fastest(library::class_of(g.node(id).op));
  }
  int lmin = dfg::asap_latency(g, delays_for(g, lib, fastest));
  double prev = 0.0;
  for (double ad : {8.0, 10.0, 12.0, 16.0, 24.0}) {
    try {
      Design d = find_design(g, lib, lmin + 2, ad);
      EXPECT_GE(d.reliability, prev - 0.02) << "area " << ad;
      prev = std::max(prev, d.reliability);
    } catch (const NoSolutionError&) {
      EXPECT_EQ(prev, 0.0) << "solution disappeared as area loosened";
    }
  }
}

TEST(FindDesign, ForceDirectedSchedulerAlsoWorks) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  FindDesignOptions opts;
  opts.scheduler = SchedulerKind::kForceDirected;
  Design d = find_design(g, lib, 12, 10.0, opts);
  validate_design(d, g, lib);
  EXPECT_LE(d.area, 10.0 + 1e-9);
}

TEST(FindDesign, PolishNeverHurts) {
  auto g = benchmarks::ewf();
  ResourceLibrary lib = library::paper_library();
  std::vector<library::VersionId> fastest(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    fastest[id] = lib.fastest(library::class_of(g.node(id).op));
  }
  int lmin = dfg::asap_latency(g, delays_for(g, lib, fastest));

  FindDesignOptions plain;
  FindDesignOptions polished;
  polished.enable_polish = true;
  Design a = find_design(g, lib, lmin + 3, 10.0, plain);
  Design b = find_design(g, lib, lmin + 3, 10.0, polished);
  validate_design(b, g, lib);
  EXPECT_GE(b.reliability, a.reliability - 1e-12);
  EXPECT_LE(b.area, 10.0 + 1e-9);
}

TEST(FindDesign, SingleNodeGraph) {
  dfg::Graph g("one");
  g.add_node("m", dfg::OpType::kMul);
  ResourceLibrary lib = library::paper_library();
  Design d = find_design(g, lib, 2, 2.0);
  EXPECT_EQ(d.version_of[0], lib.find("mult_1"));
  EXPECT_NEAR(d.reliability, 0.999, 1e-12);
}

TEST(FindDesign, TightLatencyForcesFastVersions) {
  dfg::Graph g("one");
  g.add_node("m", dfg::OpType::kMul);
  ResourceLibrary lib = library::paper_library();
  Design d = find_design(g, lib, 1, 4.0);
  EXPECT_EQ(d.version_of[0], lib.find("mult_2"));
  EXPECT_NEAR(d.reliability, 0.969, 1e-12);
}

}  // namespace
}  // namespace rchls::hls
