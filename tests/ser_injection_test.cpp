#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "circuits/adders.hpp"
#include "circuits/components.hpp"
#include "circuits/multipliers.hpp"
#include "circuits/redundancy.hpp"
#include "dfg/generate.hpp"
#include "library/resource.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "netlist/topology.hpp"
#include "parallel/config.hpp"
#include "parallel/partitioner.hpp"
#include "ser/fault_injection.hpp"
#include "sta/design.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rchls::ser {
namespace {

using netlist::GateKind;
using netlist::Netlist;

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t jobs) { parallel::set_global_jobs(jobs); }
  ~JobsGuard() { parallel::set_global_jobs(0); }
};

Netlist transparent_chain() {
  // out = buf(buf(a)): every strike on the chain reaches the output.
  Netlist nl("chain");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto g1 = nl.add_unary(GateKind::kBuf, a);
  auto g2 = nl.add_unary(GateKind::kBuf, g1);
  nl.add_output_bus("out", {g2});
  return nl;
}

Netlist fully_masked() {
  // out = and(x, 0): no strike on x's cone can be observed.
  Netlist nl("masked");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto zero = nl.add_const(false);
  auto buf = nl.add_unary(GateKind::kBuf, a);
  auto out = nl.add_binary(GateKind::kAnd, buf, zero);
  nl.add_output_bus("out", {out});
  return nl;
}

TEST(Injection, TransparentCircuitHasFullSensitivity) {
  Netlist nl = transparent_chain();
  InjectionConfig cfg;
  cfg.trials = 64 * 16;
  auto r = inject_campaign(nl, cfg);
  EXPECT_DOUBLE_EQ(r.logical_sensitivity, 1.0);
  EXPECT_EQ(r.propagated, r.trials);
}

TEST(Injection, DeratingFactorsApplyMultiplicatively) {
  Netlist nl = transparent_chain();
  InjectionConfig cfg;
  cfg.trials = 64 * 4;
  cfg.electrical_derating = 0.5;
  cfg.latching_window_derating = 0.25;
  auto r = inject_campaign(nl, cfg);
  EXPECT_DOUBLE_EQ(r.susceptibility, 1.0 * 0.5 * 0.25);
}

TEST(Injection, MaskedGateShowsZeroSensitivity) {
  Netlist nl = fully_masked();
  InjectionConfig cfg;
  cfg.trials = 64 * 8;
  // Strike only the buffer (the AND gate itself would propagate).
  auto r = inject_gate(nl, nl.gate_count() - 2, cfg);
  EXPECT_DOUBLE_EQ(r.logical_sensitivity, 0.0);
}

TEST(Injection, DeterministicUnderSeed) {
  Netlist nl = circuits::ripple_carry_adder(8);
  InjectionConfig cfg;
  cfg.trials = 64 * 32;
  cfg.seed = 42;
  auto a = inject_campaign(nl, cfg);
  auto b = inject_campaign(nl, cfg);
  EXPECT_EQ(a.propagated, b.propagated);
}

TEST(Injection, SensitivityIsAProbability) {
  Netlist nl = circuits::brent_kung_adder(8);
  InjectionConfig cfg;
  cfg.trials = 64 * 64;
  auto r = inject_campaign(nl, cfg);
  EXPECT_GT(r.logical_sensitivity, 0.0);
  EXPECT_LE(r.logical_sensitivity, 1.0);
  EXPECT_GT(r.half_width_95, 0.0);
  EXPECT_LT(r.half_width_95, 0.1);
}

TEST(Injection, TrialsRoundUpToLaneMultiples) {
  Netlist nl = transparent_chain();
  InjectionConfig cfg;
  cfg.trials = 100;  // rounds to 128
  auto r = inject_campaign(nl, cfg);
  EXPECT_EQ(r.trials, 128u);
}

TEST(Injection, RejectsBadConfigs) {
  Netlist nl = transparent_chain();
  InjectionConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(inject_campaign(nl, cfg), Error);
  cfg.trials = 64;
  cfg.electrical_derating = 1.5;
  EXPECT_THROW(inject_campaign(nl, cfg), Error);
}

// Golden values captured from the pre-FaultEngine brute-force
// implementation (two full simulations per pass). The cone-limited engine
// must reproduce them exactly, at every worker count.
TEST(Injection, BitIdenticalToPreRefactorGoldenValues) {
  struct Case {
    Netlist nl;
    std::size_t propagated;
  };
  std::vector<Case> cases;
  cases.push_back({circuits::ripple_carry_adder(8), 3647});
  cases.push_back({circuits::kogge_stone_adder(8), 2642});
  cases.push_back({circuits::brent_kung_adder(16), 2692});
  cases.push_back({circuits::carry_save_multiplier(8), 3971});
  cases.push_back({circuits::leapfrog_multiplier(8), 3622});

  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    for (const Case& c : cases) {
      InjectionConfig cfg;
      cfg.trials = 64 * 64;
      cfg.seed = 2026;
      auto r = inject_campaign(c.nl, cfg);
      EXPECT_EQ(r.trials, 4096u);
      EXPECT_EQ(r.propagated, c.propagated)
          << c.nl.name() << " at jobs=" << jobs;
    }
  }
}

TEST(Injection, InjectGateBitIdenticalToPreRefactorGoldenValues) {
  // Partially masked victims of the 8-bit Kogge-Stone adder (seed 7,
  // 2048 trials): gate 20 -> 1525, gate 40 -> 1292, gate 60 -> 0.
  Netlist nl = circuits::kogge_stone_adder(8);
  const std::pair<netlist::GateId, std::size_t> golden[] = {
      {20, 1525}, {40, 1292}, {60, 0}, {80, 2048}};
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    for (const auto& [victim, expected] : golden) {
      InjectionConfig cfg;
      cfg.trials = 64 * 32;
      cfg.seed = 7;
      auto r = inject_gate(nl, victim, cfg);
      EXPECT_EQ(r.propagated, expected)
          << "victim " << victim << " at jobs=" << jobs;
    }
  }
}

TEST(Injection, EngineMatchesBruteForceReference) {
  for (int width : {8, 12}) {
    Netlist nl = circuits::carry_save_multiplier(width);
    InjectionConfig cfg;
    cfg.trials = 64 * 32;
    cfg.seed = 99;
    auto engine = inject_campaign(nl, cfg);
    auto brute = inject_campaign_reference(nl, cfg);
    EXPECT_EQ(engine.trials, brute.trials);
    EXPECT_EQ(engine.propagated, brute.propagated);
    EXPECT_DOUBLE_EQ(engine.logical_sensitivity, brute.logical_sensitivity);
    EXPECT_DOUBLE_EQ(engine.half_width_95, brute.half_width_95);
  }
}

TEST(Injection, HalfWidthIsWilsonScore) {
  Netlist nl = transparent_chain();
  InjectionConfig cfg;
  cfg.trials = 64 * 16;
  auto r = inject_campaign(nl, cfg);
  ASSERT_DOUBLE_EQ(r.logical_sensitivity, 1.0);

  // Wilson 95% half-width at p = 1: z/(1 + z^2/n) * sqrt(z^2/(4 n^2)).
  double z = 1.96;
  double n = static_cast<double>(r.trials);
  double expected = z / (1.0 + z * z / n) * std::sqrt(z * z / (4 * n * n));
  EXPECT_DOUBLE_EQ(r.half_width_95, expected);
}

TEST(Injection, WilsonHalfWidthStaysPositiveAtZeroSensitivity) {
  // The normal approximation collapses to 0 at p == 0; Wilson must not --
  // this is exactly the small-p regime of voted redundant components.
  Netlist nl = fully_masked();
  InjectionConfig cfg;
  cfg.trials = 64 * 8;
  auto r = inject_gate(nl, nl.gate_count() - 2, cfg);
  EXPECT_DOUBLE_EQ(r.logical_sensitivity, 0.0);
  EXPECT_GT(r.half_width_95, 0.0);
  EXPECT_LT(r.half_width_95, 0.05);
}

/// Brute-force per-gate counts for inject_all_gates, in ascending gate
/// order: for every logic gate of every pass, a full faulty Simulator pass
/// compared output by output with the golden one. It shares no code with
/// FaultEngine, only the per-chunk input streams inject_all_gates draws.
std::vector<std::size_t> brute_all_gates(const Netlist& nl,
                                         const InjectionConfig& cfg) {
  netlist::Simulator sim(nl);
  std::vector<netlist::GateId> logic;
  for (netlist::GateId id = 0; id < nl.gate_count(); ++id) {
    if (netlist::fanin_count(nl.gate(id).kind) > 0) logic.push_back(id);
  }
  std::vector<std::size_t> counts(logic.size(), 0);
  std::vector<std::uint64_t> inputs(nl.input_bits().size());
  std::vector<std::uint64_t> golden, faulty;
  for (const auto& chunk : parallel::partition_trials(cfg.trials, cfg.seed)) {
    Rng rng(chunk.seed);
    for (std::size_t pass = 0; pass < chunk.trials / parallel::kLanes;
         ++pass) {
      for (auto& w : inputs) w = rng.next_u64();
      sim.eval(inputs);
      sim.pack_outputs(golden);
      for (std::size_t i = 0; i < logic.size(); ++i) {
        sim.eval(inputs, netlist::Fault{logic[i], ~0ULL});
        sim.pack_outputs(faulty);
        std::uint64_t corrupted = 0;
        for (std::size_t o = 0; o < golden.size(); ++o) {
          corrupted |= golden[o] ^ faulty[o];
        }
        counts[i] += static_cast<std::size_t>(__builtin_popcountll(corrupted));
      }
    }
  }
  return counts;
}

/// inject_all_gates must report, per gate and at every worker count,
/// exactly the brute-force count. 17 passes make two trial chunks, so
/// jobs 2 and 8 really split the sweep.
void expect_all_gates_match_brute(const Netlist& nl, std::uint64_t seed,
                                  std::size_t trials = 64 * 17) {
  InjectionConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  const std::vector<std::size_t> expected = brute_all_gates(nl, cfg);
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    auto all = inject_all_gates(nl, cfg);
    ASSERT_EQ(all.size(), expected.size()) << nl.name();
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(all[i].result.propagated, expected[i])
          << nl.name() << " gate " << all[i].gate << " at jobs=" << jobs;
    }
  }
}

/// Random netlist with the structures the sweep's shortcuts must get
/// right: logic that reaches no output, gates reading one fanin twice,
/// constants and inputs between logic gates, and several output bits --
/// some of them repeated, some inputs or constants, some feeding further
/// logic.
Netlist random_netlist(Rng& rng, int index) {
  Netlist nl("random" + std::to_string(index));
  nl.add_input_bit();
  int logic = 3 + static_cast<int>(rng.next_below(60));
  for (int i = 0; i < logic; ++i) {
    if (rng.next_bool(0.08)) nl.add_input_bit();
    if (rng.next_bool(0.05)) nl.add_const(rng.next_bool(0.5));
    auto kind = static_cast<GateKind>(
        static_cast<int>(GateKind::kBuf) +
        rng.next_below(static_cast<int>(GateKind::kXnor) -
                       static_cast<int>(GateKind::kBuf) + 1));
    // Mostly recent fanins, so chains get deep enough to reconverge.
    auto pick = [&] {
      std::size_t n = nl.gate_count();
      std::size_t back = 1 + rng.next_below(std::min<std::size_t>(n, 8));
      return static_cast<netlist::GateId>(
          rng.next_bool(0.7) ? n - back : rng.next_below(n));
    };
    netlist::GateId a = pick();
    if (netlist::fanin_count(kind) == 1) {
      nl.add_unary(kind, a);
    } else {
      nl.add_binary(kind, a, rng.next_bool(0.15) ? a : pick());
    }
  }
  std::vector<netlist::GateId> outs;
  int n_outs = 1 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < n_outs; ++i) {
    outs.push_back(static_cast<netlist::GateId>(
        rng.next_below(nl.gate_count())));
  }
  if (rng.next_bool(0.2)) outs.push_back(outs.front());
  nl.add_output_bus("out", outs);
  nl.validate();
  return nl;
}

TEST(Injection, AllGatesSweepMatchesPerGateCampaigns) {
  // inject_all_gates shares each batch's golden evaluation across every
  // victim but must report, per gate, exactly what inject_gate reports
  // (both draw the same per-chunk input streams) -- and what full
  // golden-vs-faulty resimulation reports.
  Netlist nl = circuits::ripple_carry_adder(4);
  InjectionConfig cfg;
  cfg.trials = 64 * 8;
  cfg.seed = 5;
  auto all = inject_all_gates(nl, cfg);
  ASSERT_FALSE(all.empty());
  const std::vector<std::size_t> brute = brute_all_gates(nl, cfg);
  ASSERT_EQ(all.size(), brute.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& gs = all[i];
    auto single = inject_gate(nl, gs.gate, cfg);
    EXPECT_EQ(gs.result.propagated, single.propagated) << "gate " << gs.gate;
    EXPECT_EQ(gs.result.propagated, brute[i]) << "gate " << gs.gate;
    EXPECT_EQ(gs.result.trials, single.trials);
  }
}

TEST(Injection, AllGatesSweepMatchesBruteForceOnRandomNetlists) {
  Rng rng(2027);
  std::size_t dead_netlists = 0;
  for (int i = 0; i < 240; ++i) {
    Netlist nl = random_netlist(rng, i);
    std::vector<netlist::GateId> outs = nl.output_bits();
    // Dead logic: the last gate drives nothing unless it is an output.
    if (std::find(outs.begin(), outs.end(), nl.gate_count() - 1) ==
        outs.end()) {
      ++dead_netlists;
    }
    expect_all_gates_match_brute(nl, 100 + static_cast<std::uint64_t>(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(dead_netlists, 100u);
}

TEST(Injection, AllGatesSweepMatchesBruteForceOnComponents) {
  for (const std::string& name : circuits::component_names()) {
    for (int width : {4, 6, 8}) {
      expect_all_gates_match_brute(circuits::component_by_name(name, width),
                                   static_cast<std::uint64_t>(width));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Injection, AllGatesSweepMatchesBruteForceOnVotedAdder) {
  expect_all_gates_match_brute(
      circuits::replicate_with_voting(circuits::ripple_carry_adder(4), 3), 9);
}

TEST(Injection, AllGatesSweepMatchesBruteForceOnElaboratedGraphs) {
  // The sta and rank_gates targets: elaborated graphs, whose multipliers'
  // high product bits and adders' dropped carries reach no output.
  const library::ResourceLibrary lib = library::paper_library();
  std::size_t dead_gates = 0;
  for (dfg::GraphShape shape :
       {dfg::GraphShape::kLayered, dfg::GraphShape::kChain,
        dfg::GraphShape::kFanoutTree, dfg::GraphShape::kButterfly,
        dfg::GraphShape::kFilter}) {
    dfg::GeneratorConfig gc;
    gc.num_nodes = 6;
    gc.layer_width = 3;
    gc.seed = 11;
    gc.shape = shape;
    dfg::Graph g = dfg::generate_random(gc);
    for (const char* policy : {"fastest", "most_reliable"}) {
      Netlist nl = sta::elaborate_design(g, lib, policy, 4).netlist;
      const netlist::Topology topo(nl);
      for (netlist::GateId id : topo.logic_gates()) {
        dead_gates += topo.is_live(id) ? 0 : 1;
      }
      expect_all_gates_match_brute(nl, 3);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(dead_gates, 0u);
}

TEST(Injection, AllGatesSweepIsBitIdenticalAtAnyWorkerCount) {
  Netlist nl = circuits::kogge_stone_adder(6);
  InjectionConfig cfg;
  cfg.trials = 64 * 16;
  cfg.seed = 11;
  std::vector<std::vector<GateSensitivity>> runs;
  for (std::size_t jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    runs.push_back(inject_all_gates(nl, cfg));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].gate, runs[0][i].gate);
      EXPECT_EQ(runs[r][i].result.propagated, runs[0][i].result.propagated);
    }
  }
}

TEST(Injection, RejectsBadGateTargets) {
  Netlist nl = transparent_chain();
  InjectionConfig cfg;
  EXPECT_THROW(inject_gate(nl, 999, cfg), Error);
  EXPECT_THROW(inject_gate(nl, 0, cfg), Error);  // input, not logic
}

}  // namespace
}  // namespace rchls::ser
