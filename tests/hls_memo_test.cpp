// Differential tests of the per-request AssembleMemo. Every engine that
// shares one memo across many find_design runs -- grid cells, sweep
// points, the combined approach's budget loop, find_design's explore loop
// -- must return exactly what separate calls return, field for field and
// message for message, at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dfg/generate.hpp"
#include "dfg/timing.hpp"
#include "hls/baseline.hpp"
#include "hls/combined.hpp"
#include "hls/explore.hpp"
#include "hls/find_design.hpp"
#include "hls/redundancy.hpp"
#include "library/resource.hpp"
#include "parallel/config.hpp"
#include "parallel/parallel_for.hpp"
#include "util/error.hpp"

namespace rchls::hls {
namespace {

using library::ResourceLibrary;
using library::VersionId;

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t jobs) { parallel::set_global_jobs(jobs); }
  ~JobsGuard() { parallel::set_global_jobs(0); }
};

void expect_same_design(const Design& a, const Design& b,
                        const std::string& where) {
  EXPECT_EQ(a.version_of, b.version_of) << where;
  EXPECT_EQ(a.schedule.start, b.schedule.start) << where;
  EXPECT_EQ(a.schedule.latency, b.schedule.latency) << where;
  EXPECT_EQ(a.binding.instance_of, b.binding.instance_of) << where;
  ASSERT_EQ(a.binding.instances.size(), b.binding.instances.size()) << where;
  for (std::size_t i = 0; i < a.binding.instances.size(); ++i) {
    EXPECT_EQ(a.binding.instances[i].version, b.binding.instances[i].version)
        << where << " instance " << i;
    EXPECT_EQ(a.binding.instances[i].ops, b.binding.instances[i].ops)
        << where << " instance " << i;
  }
  EXPECT_EQ(a.copies, b.copies) << where;
  EXPECT_EQ(a.latency, b.latency) << where;
  EXPECT_EQ(a.area, b.area) << where;
  EXPECT_EQ(a.reliability, b.reliability) << where;
}

/// How an engine call ended: a design, or a NoSolutionError's message.
struct Outcome {
  std::optional<Design> design;
  std::string no_solution;
};

template <typename Fn>
Outcome outcome_of(Fn&& fn) {
  Outcome o;
  try {
    o.design = fn();
  } catch (const NoSolutionError& e) {
    o.no_solution = e.what();
  }
  return o;
}

void expect_same_outcome(const Outcome& a, const Outcome& b,
                         const std::string& where) {
  EXPECT_EQ(a.no_solution, b.no_solution) << where;
  ASSERT_EQ(a.design.has_value(), b.design.has_value()) << where;
  if (a.design) expect_same_design(*a.design, *b.design, where);
}

std::optional<double> reliability_of(const Outcome& o) {
  if (!o.design) return std::nullopt;
  return o.design->reliability;
}

/// A generated graph with latency bounds from infeasible to comfortable and
/// area bounds from tight to comfortable.
struct Case {
  std::string name;
  dfg::Graph graph;
  std::vector<int> latencies;
  std::vector<double> areas;
};

std::vector<Case> generated_cases() {
  const ResourceLibrary lib = library::paper_library();
  std::vector<Case> out;
  int index = 0;
  for (dfg::GraphShape shape :
       {dfg::GraphShape::kLayered, dfg::GraphShape::kChain,
        dfg::GraphShape::kFanoutTree, dfg::GraphShape::kButterfly,
        dfg::GraphShape::kFilter}) {
    for (std::uint64_t seed : {3u, 17u, 29u}) {
      dfg::GeneratorConfig gc;
      gc.shape = shape;
      gc.seed = seed;
      gc.num_nodes = 8 + static_cast<std::size_t>(index * 11 % 33);
      ++index;
      dfg::Graph g = dfg::generate_random(gc);

      std::vector<VersionId> fastest(g.node_count());
      for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
        fastest[id] = lib.fastest(library::class_of(g.node(id).op));
      }
      int floor = dfg::asap_latency(g, delays_for(g, lib, fastest));
      int comfortable = floor + floor / 4 + 2;
      std::size_t muls = g.count_ops(dfg::OpType::kMul);
      std::size_t adds = g.node_count() - muls;
      auto units = [comfortable](std::size_t ops) {
        return static_cast<double>(
            (ops + static_cast<std::size_t>(comfortable) - 1) /
            static_cast<std::size_t>(comfortable));
      };
      double area = 2.0 * units(adds) + 4.0 * units(muls) + 2.0;

      Case c{std::string(dfg::to_string(shape)) + "/" +
                 std::to_string(seed) + "/n" +
                 std::to_string(g.node_count()),
             std::move(g),
             {std::max(1, floor - 1), floor, comfortable},
             {std::max(1.0, area / 2.0), area}};
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// The option set exercised on case `i`: each scheduler meets every
/// combination of polish, consolidation and explore 0-2 over the cases.
FindDesignOptions options_for(std::size_t i, SchedulerKind scheduler) {
  FindDesignOptions o;
  o.scheduler = scheduler;
  o.enable_polish = i % 2 == 1;
  o.enable_consolidation = i / 2 % 2 == 0;
  o.explore_tighter_latency = static_cast<int>(i / 4 % 3);
  return o;
}

std::string describe(const Case& c, const FindDesignOptions& o) {
  return c.name +
         (o.scheduler == SchedulerKind::kDensity ? " density" : " fds") +
         " polish=" + std::to_string(o.enable_polish) +
         " consolidation=" + std::to_string(o.enable_consolidation) +
         " explore=" + std::to_string(o.explore_tighter_latency);
}

/// Runs fn(case, options, label) over every case with both schedulers.
template <typename Fn>
void for_each_config(Fn&& fn) {
  auto cases = generated_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (SchedulerKind s :
         {SchedulerKind::kDensity, SchedulerKind::kForceDirected}) {
      FindDesignOptions o = options_for(i, s);
      fn(cases[i], o, describe(cases[i], o));
    }
  }
}

/// The combined approach's budget loop, restated over single find_design
/// and apply_redundancy calls that share nothing.
Design combined_by_single_calls(const dfg::Graph& g, const ResourceLibrary& lib,
                                int latency_bound, double area_bound,
                                const CombinedOptions& options) {
  std::optional<Design> best;
  int splits = options.budget_step > 0.0 ? options.max_budget_splits : 0;
  for (int k = 0; k <= splits; ++k) {
    double budget = area_bound - k * options.budget_step;
    if (!(budget > 0.0)) break;
    Design d;
    try {
      d = find_design(g, lib, latency_bound, budget, options.find_design);
    } catch (const NoSolutionError&) {
      break;
    }
    apply_redundancy(d, g, lib, area_bound, options.redundancy);
    if (!best || d.reliability > best->reliability ||
        (d.reliability == best->reliability && d.area < best->area)) {
      best = std::move(d);
    }
  }
  if (!best) {
    throw NoSolutionError("combined_design: no solution at any budget "
                          "split");
  }
  return *best;
}

TEST(AssembleMemo, LookupEqualsFreshAssemble) {
  const ResourceLibrary lib = library::paper_library();
  for (const Case& c : generated_cases()) {
    const dfg::Graph& g = c.graph;
    std::vector<VersionId> reliable(g.node_count());
    std::vector<VersionId> fastest(g.node_count());
    std::vector<VersionId> mixed(g.node_count());
    for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
      library::ResourceClass cls = library::class_of(g.node(id).op);
      reliable[id] = lib.most_reliable(cls);
      fastest[id] = lib.fastest(cls);
      mixed[id] = id % 3 == 0 ? fastest[id] : reliable[id];
    }
    AssembleMemo memo(g, lib);
    for (const auto* versions : {&reliable, &fastest, &mixed}) {
      int floor = dfg::asap_latency(g, delays_for(g, lib, *versions));
      for (SchedulerKind s :
           {SchedulerKind::kDensity, SchedulerKind::kForceDirected}) {
        for (int latency : {floor - 1, floor, floor + 1, floor + 4}) {
          std::string where = c.name + " latency " + std::to_string(latency);
          Outcome fresh = outcome_of(
              [&] { return assemble(g, lib, *versions, latency, s); });
          for (int call = 0; call < 2; ++call) {
            Outcome memoized = outcome_of(
                [&] { return *memo.assemble(*versions, latency, s); });
            expect_same_outcome(memoized, fresh,
                                where + " call " + std::to_string(call));
          }
          if (fresh.design) {
            EXPECT_EQ(memo.assemble(*versions, latency, s).get(),
                      memo.assemble(*versions, latency, s).get())
                << where << ": a repeated key must be a lookup";
          }
        }
      }
    }
  }
}

TEST(AssembleMemo, ThreadsRacingOnOneKeyShareOneAssembly) {
  const ResourceLibrary lib = library::paper_library();
  dfg::GeneratorConfig gc;
  gc.num_nodes = 40;
  gc.seed = 5;
  const dfg::Graph g = dfg::generate_random(gc);
  std::vector<VersionId> versions(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    versions[id] = lib.most_reliable(library::class_of(g.node(id).op));
  }
  int floor = dfg::asap_latency(g, delays_for(g, lib, versions));

  // A feasible key and one whose latency is below the assignment's floor.
  for (int latency : {floor + 2, floor - 1}) {
    Outcome fresh = outcome_of([&] {
      return assemble(g, lib, versions, latency, SchedulerKind::kDensity);
    });
    AssembleMemo memo(g, lib);
    constexpr int kThreads = 8;
    std::latch start(kThreads);
    std::vector<std::shared_ptr<const Design>> got(kThreads);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        try {
          got[t] = memo.assemble(versions, latency, SchedulerKind::kDensity);
        } catch (const NoSolutionError& e) {
          errors[t] = e.what();
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      std::string where = "latency " + std::to_string(latency) + " thread " +
                          std::to_string(t);
      EXPECT_EQ(errors[t], fresh.no_solution) << where;
      ASSERT_EQ(got[t] != nullptr, fresh.design.has_value()) << where;
      if (!got[t]) continue;
      EXPECT_EQ(got[t], got[0]) << where << ": not the stored Design";
      expect_same_design(*got[t], *fresh.design, where);
    }
  }
}

TEST(AssembleMemo, GridEqualsCellByCellCalls) {
  const ResourceLibrary lib = library::paper_library();
  for_each_config([&](const Case& c, const FindDesignOptions& o,
                      const std::string& where) {
    GridOptions go;
    go.find_design = o;
    go.combined.find_design = o;
    std::vector<ComparisonRow> expected;
    for (int ld : c.latencies) {
      for (double ad : c.areas) {
        ComparisonRow row;
        row.latency_bound = ld;
        row.area_bound = ad;
        row.baseline = reliability_of(outcome_of(
            [&] { return nmr_baseline(c.graph, lib, ld, ad, go.baseline); }));
        row.ours = reliability_of(outcome_of(
            [&] { return find_design(c.graph, lib, ld, ad, o); }));
        row.combined = reliability_of(outcome_of([&] {
          return combined_design(c.graph, lib, ld, ad, go.combined);
        }));
        if (row.baseline && row.ours) {
          row.improvement_ours = 100.0 * (*row.ours / *row.baseline - 1.0);
        }
        if (row.baseline && row.combined) {
          row.improvement_combined =
              100.0 * (*row.combined / *row.baseline - 1.0);
        }
        expected.push_back(row);
      }
    }
    for (std::size_t jobs : {1, 2, 8}) {
      JobsGuard guard(jobs);
      auto rows = comparison_grid(c.graph, lib, c.latencies, c.areas, go);
      ASSERT_EQ(rows.size(), expected.size()) << where;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::string at = where + " jobs=" + std::to_string(jobs) + " Ld=" +
                         std::to_string(rows[i].latency_bound) + " Ad=" +
                         std::to_string(rows[i].area_bound);
        EXPECT_EQ(rows[i].latency_bound, expected[i].latency_bound) << at;
        EXPECT_EQ(rows[i].area_bound, expected[i].area_bound) << at;
        EXPECT_EQ(rows[i].baseline, expected[i].baseline) << at;
        EXPECT_EQ(rows[i].ours, expected[i].ours) << at;
        EXPECT_EQ(rows[i].combined, expected[i].combined) << at;
        EXPECT_EQ(rows[i].improvement_ours, expected[i].improvement_ours)
            << at;
        EXPECT_EQ(rows[i].improvement_combined,
                  expected[i].improvement_combined)
            << at;
      }
    }
  });
}

TEST(AssembleMemo, SweepsEqualPointByPointCalls) {
  const ResourceLibrary lib = library::paper_library();
  auto expect_points = [](const std::vector<SweepPoint>& got,
                          const std::vector<SweepPoint>& want,
                          const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
      std::string at = where + " point " + std::to_string(i);
      EXPECT_EQ(got[i].latency_bound, want[i].latency_bound) << at;
      EXPECT_EQ(got[i].area_bound, want[i].area_bound) << at;
      EXPECT_EQ(got[i].reliability, want[i].reliability) << at;
      EXPECT_EQ(got[i].area, want[i].area) << at;
      EXPECT_EQ(got[i].latency, want[i].latency) << at;
    }
  };
  auto point = [&](const dfg::Graph& g, int ld, double ad,
                   const FindDesignOptions& o) {
    SweepPoint p;
    p.latency_bound = ld;
    p.area_bound = ad;
    Outcome out = outcome_of([&] { return find_design(g, lib, ld, ad, o); });
    if (out.design) {
      p.reliability = out.design->reliability;
      p.area = out.design->area;
      p.latency = out.design->latency;
    }
    return p;
  };
  for_each_config([&](const Case& c, const FindDesignOptions& o,
                      const std::string& where) {
    std::vector<SweepPoint> by_latency;
    for (int ld : c.latencies) {
      by_latency.push_back(point(c.graph, ld, c.areas.front(), o));
    }
    std::vector<SweepPoint> by_area;
    for (double ad : c.areas) {
      by_area.push_back(point(c.graph, c.latencies.back(), ad, o));
    }
    for (std::size_t jobs : {1, 2, 8}) {
      JobsGuard guard(jobs);
      std::string at = where + " jobs=" + std::to_string(jobs);
      expect_points(
          latency_sweep(c.graph, lib, c.latencies, c.areas.front(), o),
          by_latency, at + " latency sweep");
      expect_points(
          area_sweep(c.graph, lib, c.latencies.back(), c.areas, o), by_area,
          at + " area sweep");
    }
  });
}

TEST(AssembleMemo, SharedMemoRunsEqualSeparateCalls) {
  // The grid's sharing with whole designs and messages compared: every
  // cell's find_design and combined_design run on pool workers against
  // one memo, and must equal calls that each assemble from scratch.
  const ResourceLibrary lib = library::paper_library();
  for_each_config([&](const Case& c, const FindDesignOptions& o,
                      const std::string& where) {
    CombinedOptions co;
    co.find_design = o;
    std::vector<std::pair<int, double>> cells;
    for (int ld : c.latencies) {
      for (double ad : c.areas) cells.emplace_back(ld, ad);
    }
    std::vector<Outcome> ours;
    std::vector<Outcome> combined;
    for (auto [ld, ad] : cells) {
      ours.push_back(
          outcome_of([&] { return find_design(c.graph, lib, ld, ad, o); }));
      combined.push_back(outcome_of([&] {
        return combined_by_single_calls(c.graph, lib, ld, ad, co);
      }));
    }
    for (std::size_t jobs : {1, 2, 8}) {
      AssembleMemo memo(c.graph, lib);
      auto shared = parallel::parallel_map(
          cells.size(),
          [&](std::size_t i) {
            auto [ld, ad] = cells[i];
            return std::pair{
                outcome_of([&] { return find_design(memo, ld, ad, o); }),
                outcome_of(
                    [&] { return combined_design(memo, ld, ad, co); })};
          },
          jobs);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string at = where + " jobs=" + std::to_string(jobs) + " Ld=" +
                         std::to_string(cells[i].first) + " Ad=" +
                         std::to_string(cells[i].second);
        expect_same_outcome(shared[i].first, ours[i], at + " ours");
        expect_same_outcome(shared[i].second, combined[i], at + " combined");
      }
    }
  });
}

TEST(AssembleMemo, CombinedEqualsBudgetLoopOfSingleCalls) {
  const ResourceLibrary lib = library::paper_library();
  for_each_config([&](const Case& c, const FindDesignOptions& o,
                      const std::string& where) {
    for (double step : {1.0, 0.0}) {
      CombinedOptions co;
      co.find_design = o;
      co.budget_step = step;
      for (int ld : c.latencies) {
        for (double ad : c.areas) {
          std::string at = where + " step=" + std::to_string(step) +
                           " Ld=" + std::to_string(ld) +
                           " Ad=" + std::to_string(ad);
          expect_same_outcome(
              outcome_of(
                  [&] { return combined_design(c.graph, lib, ld, ad, co); }),
              outcome_of([&] {
                return combined_by_single_calls(c.graph, lib, ld, ad, co);
              }),
              at);
        }
      }
    }
  });
}

}  // namespace
}  // namespace rchls::hls
