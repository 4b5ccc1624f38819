// Differential verification of the cone-limited incremental FaultEngine
// against full golden-vs-faulty resimulation, plus unit tests for the
// masked-fault early exit.
#include <gtest/gtest.h>

#include <vector>

#include "circuits/adders.hpp"
#include "circuits/multipliers.hpp"
#include "circuits/redundancy.hpp"
#include "netlist/fault_engine.hpp"
#include "netlist/sim.hpp"
#include "netlist/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rchls::netlist {
namespace {

/// Brute-force oracle: full faulty resimulation, then OR the per-output
/// diffs into one corruption word.
std::uint64_t brute_corruption(Simulator& sim,
                               const std::vector<std::uint64_t>& inputs,
                               const std::vector<std::uint64_t>& golden_out,
                               const Fault& fault) {
  sim.eval(inputs, fault);
  std::vector<std::uint64_t> faulty_out;
  sim.pack_outputs(faulty_out);
  std::uint64_t corrupted = 0;
  for (std::size_t i = 0; i < golden_out.size(); ++i) {
    corrupted |= golden_out[i] ^ faulty_out[i];
  }
  return corrupted;
}

/// Asserts engine == brute force for EVERY gate of `nl` under `batches`
/// random input batches and a mix of lane masks.
void expect_engine_matches_brute(const Netlist& nl, std::uint64_t seed,
                                 int batches = 3) {
  Topology topo(nl);
  FaultEngine engine(nl, topo);
  Simulator sim(nl);
  Rng rng(seed);

  std::vector<std::uint64_t> inputs(nl.input_bits().size());
  for (int b = 0; b < batches; ++b) {
    for (auto& w : inputs) w = rng.next_u64();
    sim.eval(inputs);
    std::vector<std::uint64_t> golden_out;
    sim.pack_outputs(golden_out);
    engine.set_inputs(inputs);
    ASSERT_EQ(engine.golden(), sim.run(inputs));

    std::uint64_t masks[] = {~0ULL, rng.next_u64(), 1ULL, 0ULL};
    for (GateId victim = 0; victim < nl.gate_count(); ++victim) {
      for (std::uint64_t mask : masks) {
        Fault fault{victim, mask};
        ASSERT_EQ(engine.inject(fault),
                  brute_corruption(sim, inputs, golden_out, fault))
            << nl.name() << " victim " << victim << " mask " << mask;
      }
    }
  }
}

/// Random combinational netlist: `inputs` input bits, `logic` gates of
/// random kind with random earlier fanins, a random slice of gates as
/// outputs. Gate-id order is a topological order by construction.
Netlist random_netlist(Rng& rng, int inputs, int logic) {
  Netlist nl("random");
  nl.add_input_bus("in", inputs);
  if (rng.next_bool(0.3)) nl.add_const(rng.next_bool(0.5));
  for (int i = 0; i < logic; ++i) {
    auto kind = static_cast<GateKind>(
        static_cast<int>(GateKind::kBuf) +
        rng.next_below(static_cast<int>(GateKind::kXnor) -
                       static_cast<int>(GateKind::kBuf) + 1));
    GateId a = static_cast<GateId>(rng.next_below(nl.gate_count()));
    if (fanin_count(kind) == 1) {
      nl.add_unary(kind, a);
    } else {
      GateId b = static_cast<GateId>(rng.next_below(nl.gate_count()));
      nl.add_binary(kind, a, b);
    }
  }
  // Outputs: a handful of random gates plus the last one (so the deepest
  // logic is observable).
  std::vector<GateId> outs;
  for (int i = 0; i < 4; ++i) {
    outs.push_back(static_cast<GateId>(rng.next_below(nl.gate_count())));
  }
  outs.push_back(static_cast<GateId>(nl.gate_count() - 1));
  nl.add_output_bus("out", outs);
  nl.validate();
  return nl;
}

TEST(FaultEngine, MatchesBruteForceOnRandomNetlists) {
  Rng rng(2026);
  for (int trial = 0; trial < 25; ++trial) {
    int inputs = 2 + static_cast<int>(rng.next_below(6));
    int logic = 5 + static_cast<int>(rng.next_below(60));
    Netlist nl = random_netlist(rng, inputs, logic);
    expect_engine_matches_brute(nl, /*seed=*/1000 + trial, /*batches=*/2);
  }
}

TEST(FaultEngine, MatchesBruteForceOnArithmeticComponents) {
  expect_engine_matches_brute(circuits::ripple_carry_adder(8), 1);
  expect_engine_matches_brute(circuits::kogge_stone_adder(8), 2);
  expect_engine_matches_brute(circuits::brent_kung_adder(8), 3);
  expect_engine_matches_brute(circuits::carry_save_multiplier(6), 4);
  expect_engine_matches_brute(circuits::leapfrog_multiplier(6), 5);
}

TEST(FaultEngine, MatchesBruteForceOnVotedRedundantNetlist) {
  Netlist tmr =
      circuits::replicate_with_voting(circuits::ripple_carry_adder(4), 3);
  expect_engine_matches_brute(tmr, 6);
}

TEST(FaultEngine, MaskedFaultExitsEarly) {
  // out = and(buf(a), 0): a strike on the buffer dies at the AND gate, so
  // the frontier must stop after evaluating exactly that one gate -- not
  // the whole downstream cone.
  Netlist nl("masked");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto zero = nl.add_const(false);
  auto buf = nl.add_unary(GateKind::kBuf, a);
  auto gated = nl.add_binary(GateKind::kAnd, buf, zero);
  // A tail of gates below the masking point that must never be visited.
  auto t1 = nl.bnot(gated);
  auto t2 = nl.bxor(t1, gated);
  nl.add_output_bus("out", {t2});

  Topology topo(nl);
  // buf, and, not and xor all reach the output, so only the masking can
  // stop the frontier.
  for (GateId g : {buf, gated, t1, t2}) EXPECT_TRUE(topo.is_live(g));

  FaultEngine engine(nl, topo);
  std::vector<std::uint64_t> inputs = {0x0123456789abcdefULL};
  engine.set_inputs(inputs);
  EXPECT_EQ(engine.inject(Fault{buf, ~0ULL}), 0u);
  EXPECT_EQ(engine.last_evaluations(), 1u);  // only the AND was re-evaluated
}

TEST(FaultEngine, InjectUntilMatchesBruteForceDiffAtStop) {
  // For every victim and every live stop gate, the stop's diff word after
  // a resimulation cut at its level equals full faulty resimulation's.
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    int inputs = 2 + static_cast<int>(rng.next_below(6));
    int logic = 5 + static_cast<int>(rng.next_below(60));
    Netlist nl = random_netlist(rng, inputs, logic);
    Topology topo(nl);
    FaultEngine engine(nl, topo);
    Simulator sim(nl);
    std::vector<std::uint64_t> words(nl.input_bits().size());
    for (auto& w : words) w = rng.next_u64();
    const std::vector<std::uint64_t> golden = sim.run(words);
    engine.set_inputs(words);
    for (GateId victim = 0; victim < nl.gate_count(); ++victim) {
      Fault fault{victim, rng.next_bool(0.5) ? ~0ULL : rng.next_u64()};
      const std::vector<std::uint64_t> faulty = sim.run(words, fault);
      for (GateId stop = 0; stop < nl.gate_count(); ++stop) {
        if (!topo.is_live(stop)) {
          EXPECT_THROW(engine.inject_until(fault, stop), Error);
          continue;
        }
        ASSERT_EQ(engine.inject_until(fault, stop),
                  faulty[stop] ^ golden[stop])
            << "trial " << trial << " victim " << victim << " stop " << stop;
      }
    }
  }
}

TEST(FaultEngine, NeverEvaluatesLogicThatReachesNoOutput) {
  // out = buf(a); not(a) and and(not(a), a) feed nothing observable.
  Netlist nl("dead");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto out = nl.add_unary(GateKind::kBuf, a);
  auto dead = nl.bnot(a);
  auto dead2 = nl.band(dead, a);
  nl.add_output_bus("out", {out});

  Topology topo(nl);
  EXPECT_FALSE(topo.is_live(dead));
  EXPECT_FALSE(topo.is_live(dead2));
  FaultEngine engine(nl, topo);
  engine.set_inputs({0x0123456789abcdefULL});
  EXPECT_EQ(engine.inject(Fault{a, ~0ULL}), ~0ULL);
  EXPECT_EQ(engine.last_evaluations(), 1u);  // the buffer only
  EXPECT_EQ(engine.inject(Fault{dead, ~0ULL}), 0u);
  EXPECT_EQ(engine.last_evaluations(), 0u);
}

TEST(FaultEngine, ZeroLaneMaskIsFree) {
  Netlist nl = circuits::ripple_carry_adder(4);
  Topology topo(nl);
  FaultEngine engine(nl, topo);
  std::vector<std::uint64_t> inputs(nl.input_bits().size(), ~0ULL);
  engine.set_inputs(inputs);
  EXPECT_EQ(engine.inject(Fault{5, 0}), 0u);
  EXPECT_EQ(engine.last_evaluations(), 0u);
}

TEST(FaultEngine, ConsecutiveInjectionsAreIndependent) {
  // The epoch overlay must fully undo fault N before fault N+1.
  Netlist nl = circuits::kogge_stone_adder(6);
  Topology topo(nl);
  FaultEngine engine(nl, topo);
  Simulator sim(nl);
  Rng rng(7);
  std::vector<std::uint64_t> inputs(nl.input_bits().size());
  for (auto& w : inputs) w = rng.next_u64();
  sim.eval(inputs);
  std::vector<std::uint64_t> golden_out;
  sim.pack_outputs(golden_out);
  engine.set_inputs(inputs);

  Fault probe{static_cast<GateId>(nl.gate_count() - 1), ~0ULL};
  std::uint64_t expected = brute_corruption(sim, inputs, golden_out, probe);
  for (int round = 0; round < 3; ++round) {
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      engine.inject(Fault{g, 0xf0f0f0f0f0f0f0f0ULL});
    }
    EXPECT_EQ(engine.inject(probe), expected) << "round " << round;
  }
}

TEST(FaultEngine, RejectsMisuse) {
  Netlist nl = circuits::ripple_carry_adder(4);
  Topology topo(nl);
  FaultEngine engine(nl, topo);
  EXPECT_THROW(engine.inject(Fault{0, ~0ULL}), Error);  // no inputs yet
  std::vector<std::uint64_t> inputs(nl.input_bits().size(), 0);
  engine.set_inputs(inputs);
  EXPECT_THROW(engine.inject(Fault{static_cast<GateId>(nl.gate_count()),
                                   ~0ULL}),
               Error);

  Netlist other = circuits::ripple_carry_adder(8);
  EXPECT_THROW(FaultEngine(other, topo), Error);
}

}  // namespace
}  // namespace rchls::netlist
