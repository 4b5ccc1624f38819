// Executor-seam tests (api/executor.hpp, api/sharding.hpp): the
// sharding invariant every fleet run rests on -- any slice count of a
// sweep/grid, executed slice by slice through LocalExecutor and merged
// back, renders byte-identical to the unsharded request at jobs 1/2/8
// -- plus the graph-target engine seams and StaRequest validation.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/executor.hpp"
#include "api/sharding.hpp"
#include "benchmarks/suite.hpp"
#include "netlist/topology.hpp"
#include "parallel/config.hpp"
#include "scenario/report.hpp"
#include "ser/characterize.hpp"
#include "sta/delay_model.hpp"
#include "sta/design.hpp"
#include "sta/sensitivity.hpp"
#include "sta/timing.hpp"
#include "rtl/elaborate.hpp"
#include "util/error.hpp"

namespace rchls::api {
namespace {

class JobsGuard {
 public:
  JobsGuard() : saved_(parallel::global_config().jobs) {}
  ~JobsGuard() { parallel::global_config().jobs = saved_; }

 private:
  std::size_t saved_;
};

SweepRequest sweep_request() {
  SweepRequest req;
  req.graph = benchmarks::by_name("fig4_example");
  req.library = library::paper_library();
  req.axis = SweepAxis::kArea;
  req.latency_bounds = {6};
  req.area_bounds = {6.0, 7.0, 8.0, 10.0, 12.0};
  return req;
}

GridRequest grid_request() {
  GridRequest req;
  req.graph = benchmarks::by_name("fig4_example");
  req.library = library::paper_library();
  req.latency_bounds = {6, 7};
  req.area_bounds = {8.0, 10.0, 12.0};
  return req;
}

// Renders a result the way every front-end does, so "byte-identical"
// means through the report writers, not just field equality.
template <typename ResultT>
std::string rendered(ResultT r) {
  scenario::RunReport report;
  report.scenario_name = "executor";
  report.graph = benchmarks::by_name("fig4_example");
  report.library = library::paper_library();
  report.actions.push_back({"action", 0, std::move(r)});
  return scenario::report::to_json(report);
}

// ------------------------------------------------ sharding invariant

// Runs every slice of a sharded request through LocalExecutor, in slice
// order, for the caller to merge -- what remote::RemoteExecutor does
// over sockets, minus the transport.
template <typename RequestT>
std::vector<Result> run_slices(const std::vector<Request>& slices) {
  LocalExecutor local;
  Executor& exec = local;  // the variant dispatcher
  std::vector<Result> parts;
  for (const Request& slice : slices) {
    EXPECT_TRUE(std::holds_alternative<RequestT>(slice));
    parts.push_back(exec.run(slice));
  }
  return parts;
}

// Every slice count from 1 to cells+1, at jobs 1/2/8, on both sweep
// axes: merged slices render byte-identical to the unsharded run.
TEST(ApiExecutor, ShardedSweepIsByteIdenticalToLocalAtAnyJobsAndShards) {
  JobsGuard guard;
  SweepRequest by_latency = sweep_request();
  by_latency.axis = SweepAxis::kLatency;
  by_latency.latency_bounds = {5, 6, 7, 8};
  by_latency.area_bounds = {10.0};

  for (const SweepRequest& req : {sweep_request(), by_latency}) {
    parallel::set_global_jobs(1);
    LocalExecutor local;
    const std::string reference = rendered(local.run(req));
    const std::size_t cells = req.axis == SweepAxis::kArea
                                  ? req.area_bounds.size()
                                  : req.latency_bounds.size();
    for (std::size_t k = 1; k <= cells + 1; ++k) {
      for (std::size_t jobs : {1u, 2u, 8u}) {
        parallel::set_global_jobs(jobs);
        std::vector<Request> slices = shard_sweep(req, k);
        EXPECT_EQ(slices.size(), std::min(k, cells)) << "k=" << k;
        std::vector<Result> parts = run_slices<SweepRequest>(slices);
        EXPECT_EQ(rendered(merge_sweep(req, parts)), reference)
            << "k=" << k << " jobs=" << jobs;
      }
    }
  }
}

TEST(ApiExecutor, ShardedGridIsByteIdenticalIncludingAverages) {
  JobsGuard guard;
  const GridRequest req = grid_request();
  parallel::set_global_jobs(1);
  LocalExecutor local;
  const std::string reference = rendered(local.run(req));
  const std::size_t cells =
      req.latency_bounds.size() * req.area_bounds.size();

  for (std::size_t k = 1; k <= cells + 1; ++k) {
    for (std::size_t jobs : {1u, 2u, 8u}) {
      parallel::set_global_jobs(jobs);
      std::vector<Request> slices = shard_grid(req, k);
      // Slices never cross a row boundary: at least one per row, each a
      // one-latency grid; each row boundary adds at most one cut to the
      // k - 1 balanced ones.
      const std::size_t rows = req.latency_bounds.size();
      EXPECT_GE(slices.size(), rows) << "k=" << k;
      EXPECT_LE(slices.size(), std::min(k + rows - 1, cells)) << "k=" << k;
      for (const Request& slice : slices) {
        EXPECT_EQ(std::get<GridRequest>(slice).latency_bounds.size(), 1u);
      }
      std::vector<Result> parts = run_slices<GridRequest>(slices);
      EXPECT_EQ(rendered(merge_grid(req, parts)), reference)
          << "k=" << k << " jobs=" << jobs;
    }
  }
}

// ----------------------------------------------------------- sta / design

// The graph-target seam: a rank_gates request over an elaborated design
// must reproduce exactly what the engines say when called by hand on
// sta::elaborate_design's netlist.
TEST(ApiExecutor, GraphTargetRankGatesMatchesEngineLevelRanking) {
  RankGatesRequest req;
  req.graph = benchmarks::by_name("fig4_example");
  req.library = library::paper_library();
  req.versions = "most_reliable";
  req.width = 4;
  req.trials = 256;
  req.seed = 5;
  req.top = 0;  // keep every row

  LocalExecutor local;
  RankGatesResult got = local.run(req);

  rtl::Elaboration e =
      sta::elaborate_design(*req.graph, req.library, "most_reliable", 4);
  ser::InjectionConfig cfg;
  cfg.trials = 256;
  cfg.seed = 5;
  std::vector<ser::GateSensitivity> want =
      ser::rank_gate_sensitivities(e.netlist, cfg);

  EXPECT_EQ(got.component, e.netlist.name());
  ASSERT_EQ(got.gates.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.gates[i].gate, want[i].gate) << "row " << i;
    EXPECT_DOUBLE_EQ(got.gates[i].result.logical_sensitivity,
                     want[i].result.logical_sensitivity);
    EXPECT_EQ(got.kinds[i],
              netlist::to_string(e.netlist.gate(want[i].gate).kind));
  }
}

// Likewise for sta: the result rows are join_sensitivity over the same
// elaborated netlist, timed from the library's arcs.
TEST(ApiExecutor, GraphTargetStaMatchesEngineLevelJoin) {
  StaRequest req;
  req.graph = benchmarks::by_name("fig4_example");
  req.library = library::paper_library();
  req.versions = "fastest";
  req.width = 4;
  req.trials = 256;
  req.seed = 5;
  req.top = 0;

  LocalExecutor local;
  StaResult got = local.run(req);

  rtl::Elaboration e =
      sta::elaborate_design(*req.graph, req.library, "fastest", 4);
  netlist::Topology topo(e.netlist);
  sta::TimingReport tr = sta::analyze(
      e.netlist, topo,
      sta::DelayModel::from_library(e.netlist, e.gate_version, req.library),
      {0.0, 3, 8});
  ser::InjectionConfig cfg;
  cfg.trials = 256;
  cfg.seed = 5;
  std::vector<sta::SensitivityRow> want = sta::join_sensitivity(
      ser::rank_gate_sensitivities(e.netlist, cfg), tr);

  EXPECT_EQ(got.target, e.netlist.name());
  EXPECT_EQ(got.gate_count, e.netlist.gate_count());
  EXPECT_DOUBLE_EQ(got.clock, tr.clock);
  EXPECT_DOUBLE_EQ(got.wns, tr.wns);
  ASSERT_EQ(got.rows.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.rows[i].gate, want[i].gate) << "row " << i;
    EXPECT_DOUBLE_EQ(got.rows[i].sensitivity, want[i].sensitivity);
    EXPECT_DOUBLE_EQ(got.rows[i].slack, want[i].slack);
  }
}

TEST(ApiExecutor, StaRejectsInvalidParameters) {
  LocalExecutor local;
  StaRequest negative_clock;
  negative_clock.component = "ripple_carry_adder";
  negative_clock.clock = -1.0;
  EXPECT_THROW(local.run(negative_clock), Error);

  StaRequest negative_top;
  negative_top.component = "ripple_carry_adder";
  negative_top.top = -1;
  EXPECT_THROW(local.run(negative_top), Error);

  StaRequest both_targets;
  both_targets.component = "ripple_carry_adder";
  both_targets.graph = benchmarks::by_name("fig4_example");
  both_targets.library = library::paper_library();
  EXPECT_THROW(local.run(both_targets), Error);
}

}  // namespace
}  // namespace rchls::api
