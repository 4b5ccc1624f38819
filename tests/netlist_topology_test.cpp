#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "circuits/multipliers.hpp"
#include "netlist/topology.hpp"

namespace rchls::netlist {
namespace {

// Gate ids: 0=a, 1=b, 2=not(a), 3=and(a,b), 4=or(2,3) -- a reconvergent
// diamond with a single output.
Netlist diamond() {
  Netlist nl("diamond");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto b = nl.add_input_bus("b", 1).bits[0];
  auto g1 = nl.bnot(a);
  auto g2 = nl.band(a, b);
  auto g3 = nl.bor(g1, g2);
  nl.add_output_bus("out", {g3});
  return nl;
}

TEST(Topology, LevelsAreZeroForInputsAndIncreaseDownstream) {
  Netlist nl = diamond();
  Topology topo(nl);
  EXPECT_EQ(topo.level(0), 0u);  // input a
  EXPECT_EQ(topo.level(1), 0u);  // input b
  EXPECT_EQ(topo.level(2), 1u);  // not(a)
  EXPECT_EQ(topo.level(3), 1u);  // and(a, b)
  EXPECT_EQ(topo.level(4), 2u);  // or
  EXPECT_EQ(topo.max_level(), 2u);

  // Every logic gate sits strictly above each of its fanins.
  for (GateId id : topo.logic_gates()) {
    const Gate& g = nl.gate(id);
    EXPECT_GT(topo.level(id), topo.level(g.fanin0));
    if (fanin_count(g.kind) == 2) {
      EXPECT_GT(topo.level(id), topo.level(g.fanin1));
    }
  }
}

TEST(Topology, FanoutAdjacencyMatchesFanins) {
  Netlist nl = diamond();
  Topology topo(nl);

  auto fanouts = [&](GateId id) {
    return std::vector<GateId>(topo.fanout_begin(id), topo.fanout_end(id));
  };
  EXPECT_EQ(fanouts(0), (std::vector<GateId>{2, 3}));  // a feeds not, and
  EXPECT_EQ(fanouts(1), (std::vector<GateId>{3}));     // b feeds and
  EXPECT_EQ(fanouts(2), (std::vector<GateId>{4}));
  EXPECT_EQ(fanouts(3), (std::vector<GateId>{4}));
  EXPECT_EQ(topo.fanout_count(4), 0u);
}

TEST(Topology, DuplicateFaninEdgeIsCollapsed) {
  Netlist nl("dup");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto g = nl.bxor(a, a);
  nl.add_output_bus("out", {g});
  Topology topo(nl);
  EXPECT_EQ(topo.fanout_count(a), 1u);
}

TEST(Topology, LogicGatesExcludeInputsAndConstants) {
  Netlist nl = diamond();
  Topology topo(nl);
  EXPECT_EQ(topo.logic_gates(), (std::vector<GateId>{2, 3, 4}));
}

TEST(Topology, OutputBitsAreFlagged) {
  Netlist nl = diamond();
  Topology topo(nl);
  for (GateId id = 0; id < nl.gate_count(); ++id) {
    EXPECT_EQ(topo.is_output_bit(id), id == 4u) << "gate " << id;
  }
}

/// `src`'s gates, observed only at `outs`.
Netlist with_outputs(const Netlist& src, std::vector<GateId> outs) {
  Netlist nl(src.name());
  for (const Gate& g : src.gates()) {
    switch (fanin_count(g.kind)) {
      case 0:
        if (g.kind == GateKind::kInput) {
          nl.add_input_bit();
        } else {
          nl.add_const(g.kind == GateKind::kConst1);
        }
        break;
      case 1: nl.add_unary(g.kind, g.fanin0); break;
      default: nl.add_binary(g.kind, g.fanin0, g.fanin1); break;
    }
  }
  nl.add_output_bus("out", std::move(outs));
  return nl;
}

TEST(Topology, LivenessMatchesBruteForceReachability) {
  // A 6x6 multiplier observed only at its low product half: the logic
  // that feeds only the high bits must read as dead.
  Netlist full = circuits::carry_save_multiplier(6);
  const std::vector<GateId>& prod = full.output_bus("prod").bits;
  Netlist nl = with_outputs(
      full, std::vector<GateId>(prod.begin(), prod.begin() + 6));
  Topology topo(nl);

  // Brute force: the set each gate reaches, by one scan of the fanins in
  // id order (ids are topological); "live" iff it holds an output bit.
  std::set<GateId> outputs;
  for (GateId id : nl.output_bits()) outputs.insert(id);
  std::size_t dead = 0;
  for (GateId root = 0; root < nl.gate_count(); ++root) {
    std::set<GateId> reach{root};
    for (GateId id = root + 1; id < nl.gate_count(); ++id) {
      const Gate& g = nl.gate(id);
      int n = fanin_count(g.kind);
      if ((n >= 1 && reach.count(g.fanin0)) ||
          (n == 2 && reach.count(g.fanin1))) {
        reach.insert(id);
      }
    }
    bool live = std::any_of(reach.begin(), reach.end(),
                            [&](GateId id) { return outputs.count(id); });
    EXPECT_EQ(topo.is_live(root), live) << "gate " << root;
    dead += live ? 0 : 1;
  }
  EXPECT_GT(dead, 0u);  // the high product bits' logic
}

}  // namespace
}  // namespace rchls::netlist
