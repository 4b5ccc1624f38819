#include <gtest/gtest.h>

#include "benchmarks/suite.hpp"
#include "netlist/compose.hpp"
#include "netlist/sim.hpp"
#include "netlist/stats.hpp"
#include "rtl/datapath.hpp"
#include "rtl/elaborate.hpp"
#include "circuits/adders.hpp"
#include "dfg/timing.hpp"
#include "hls/find_design.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rchls::rtl {
namespace {

using library::ResourceLibrary;
using library::VersionId;

std::vector<VersionId> versions_by_name(const dfg::Graph& g,
                                        const ResourceLibrary& lib,
                                        const std::string& adder,
                                        const std::string& mult) {
  std::vector<VersionId> v(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    v[id] = library::class_of(g.node(id).op) ==
                    library::ResourceClass::kAdder
                ? lib.find(adder)
                : lib.find(mult);
  }
  return v;
}

/// Drives the elaborated netlist and the software reference with the same
/// random operands and compares all outputs.
void check_equivalence(const dfg::Graph& g, const ResourceLibrary& lib,
                       const std::vector<VersionId>& versions, int width,
                       int trials, std::uint64_t seed) {
  Elaboration e = elaborate(g, lib, versions, width);
  netlist::Simulator sim(e.netlist);
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    std::unordered_map<std::string, std::uint64_t> operands;
    std::vector<std::uint64_t> bus_values;
    for (const auto& name : e.input_names) {
      std::uint64_t v = rng.next_u64();
      operands[name] = v;
      bus_values.push_back(v);
    }
    auto hw = sim.run_scalar(bus_values);
    auto sw = reference_eval(g, width, operands);
    ASSERT_EQ(hw.size(), sw.size());
    std::uint64_t mask = (1ULL << width) - 1;
    for (std::size_t i = 0; i < hw.size(); ++i) {
      EXPECT_EQ(hw[i], sw[i] & mask)
          << g.name() << " output " << e.output_names[i] << " trial " << t;
    }
  }
}

TEST(Compose, AppendWiresInputsToDrivers) {
  netlist::Netlist dst("top");
  auto a = dst.add_input_bus("a", 2).bits;
  auto b = dst.add_input_bus("b", 2).bits;
  netlist::Netlist adder = circuits::ripple_carry_adder(2);
  std::vector<netlist::GateId> drivers = {a[0], a[1], b[0], b[1],
                                          dst.add_const(false)};
  auto map = netlist::append(dst, adder, drivers);
  std::vector<netlist::GateId> sum;
  for (auto bit : adder.output_bus("sum").bits) sum.push_back(map[bit]);
  dst.add_output_bus("sum", sum);

  netlist::Simulator sim(dst);
  for (std::uint64_t x = 0; x < 4; ++x) {
    for (std::uint64_t y = 0; y < 4; ++y) {
      EXPECT_EQ(sim.run_scalar({x, y})[0], (x + y) & 3);
    }
  }
}

TEST(Compose, RejectsBadDrivers) {
  netlist::Netlist dst("top");
  dst.add_input_bus("a", 1);
  netlist::Netlist adder = circuits::ripple_carry_adder(2);
  EXPECT_THROW(netlist::append(dst, adder, {0}), Error);
  EXPECT_THROW(netlist::append(dst, adder, {0, 0, 0, 0, 99}), Error);
}

// std::string, not const char*: gtest prints a const char* tuple element with
// its address, which would put a per-run value into the ctest names.
class ElaborateBenchmarks
    : public ::testing::TestWithParam<std::tuple<std::string, std::string,
                                                 std::string>> {};

TEST_P(ElaborateBenchmarks, MatchesSoftwareReference) {
  auto [bench, adder, mult] = GetParam();
  auto g = benchmarks::by_name(bench);
  ResourceLibrary lib = library::paper_library();
  auto versions = versions_by_name(g, lib, adder, mult);
  check_equivalence(g, lib, versions, 8, 10, 42);
}

INSTANTIATE_TEST_SUITE_P(
    All, ElaborateBenchmarks,
    ::testing::Values(
        std::make_tuple("fir16", "adder_1", "mult_1"),
        std::make_tuple("fir16", "adder_2", "mult_2"),
        std::make_tuple("diffeq", "adder_3", "mult_1"),
        std::make_tuple("ewf", "adder_2", "mult_1"),
        std::make_tuple("iir_biquad", "adder_1", "mult_2"),
        std::make_tuple("fdct", "adder_2", "mult_2")),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_" + std::get<2>(info.param);
    });

TEST(Elaborate, VersionChoiceDoesNotChangeFunction) {
  auto g = benchmarks::diffeq();
  ResourceLibrary lib = library::paper_library();
  auto v1 = versions_by_name(g, lib, "adder_1", "mult_1");
  auto v2 = versions_by_name(g, lib, "adder_3", "mult_2");
  Elaboration e1 = elaborate(g, lib, v1, 6);
  Elaboration e2 = elaborate(g, lib, v2, 6);
  netlist::Simulator s1(e1.netlist);
  netlist::Simulator s2(e2.netlist);
  Rng rng(7);
  for (int t = 0; t < 20; ++t) {
    std::vector<std::uint64_t> in(e1.input_names.size());
    for (auto& v : in) v = rng.next_u64();
    EXPECT_EQ(s1.run_scalar(in), s2.run_scalar(in));
  }
}

TEST(Elaborate, SubAndLtSemantics) {
  dfg::Graph g("cmp");
  g.add_node("d", dfg::OpType::kSub);
  g.add_node("c", dfg::OpType::kLt);
  ResourceLibrary lib = library::paper_library();
  std::vector<VersionId> v(2, lib.find("adder_1"));
  Elaboration e = elaborate(g, lib, v, 8);
  netlist::Simulator sim(e.netlist);
  // inputs: d_in0, d_in1, c_in0, c_in1.
  auto out = sim.run_scalar({200, 45, 10, 20});
  EXPECT_EQ(out[0], (200 - 45) & 0xFF);
  EXPECT_EQ(out[1], 1u);  // 10 < 20
  out = sim.run_scalar({5, 9, 20, 10});
  EXPECT_EQ(out[0], (5 - 9) & 0xFFu);
  EXPECT_EQ(out[1], 0u);
}

TEST(Elaborate, BiggerVersionsMeanBiggerNetlists) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  auto small = versions_by_name(g, lib, "adder_1", "mult_1");
  auto fast = versions_by_name(g, lib, "adder_3", "mult_2");
  auto n_small = elaborate(g, lib, small, 8).netlist.gate_count();
  auto n_fast = elaborate(g, lib, fast, 8).netlist.gate_count();
  EXPECT_GT(n_fast, n_small);
}

TEST(Elaborate, RejectsBadInputs) {
  auto g = benchmarks::diffeq();
  ResourceLibrary lib = library::paper_library();
  auto v = versions_by_name(g, lib, "adder_1", "mult_1");
  EXPECT_THROW(elaborate(g, lib, v, 1), Error);
  EXPECT_THROW(elaborate(g, lib, std::vector<VersionId>{0}, 8), Error);
  // class mismatch
  auto bad = v;
  bad[g.find("+1")] = lib.find("mult_1");
  EXPECT_THROW(elaborate(g, lib, bad, 8), Error);
}

TEST(Datapath, StructureMatchesDesign) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  hls::Design d = hls::find_design(g, lib, 12, 10.0);
  DatapathModel m = build_datapath(d, g, lib);

  EXPECT_EQ(m.units.size(), d.binding.instances.size());
  EXPECT_EQ(m.control.size(), static_cast<std::size_t>(d.latency));
  EXPECT_DOUBLE_EQ(m.unit_area, d.area);
  EXPECT_GT(m.register_count, 0);
  EXPECT_GT(m.total_area(), m.unit_area);

  // Every op is issued exactly once, at its scheduled start.
  std::size_t issued = 0;
  for (std::size_t step = 0; step < m.control.size(); ++step) {
    for (const MicroOp& mop : m.control[step].issue) {
      EXPECT_EQ(d.schedule.start[mop.op], static_cast<int>(step));
      EXPECT_EQ(d.binding.instance_of[mop.op], mop.unit);
      EXPECT_EQ(m.reg_of[mop.op], mop.dest_register);
      ++issued;
    }
  }
  EXPECT_EQ(issued, g.node_count());
}

TEST(Datapath, SharedUnitsNeedMuxes) {
  auto g = benchmarks::fir16();
  ResourceLibrary lib = library::paper_library();
  hls::Design d = hls::find_design(g, lib, 12, 10.0);
  DatapathModel m = build_datapath(d, g, lib);
  // FIR shares heavily at this bound; some unit must be muxed.
  int total_mux = 0;
  for (const auto& u : m.units) {
    total_mux += u.port_a.mux_count() + u.port_b.mux_count();
  }
  EXPECT_GT(total_mux, 0);
  EXPECT_GT(m.mux_area, 0.0);
}

TEST(Datapath, ReportMentionsEveryUnit) {
  auto g = benchmarks::diffeq();
  ResourceLibrary lib = library::paper_library();
  hls::Design d = hls::find_design(g, lib, 8, 12.0);
  DatapathModel m = build_datapath(d, g, lib);
  std::string s = to_string(m, g);
  for (const auto& u : m.units) {
    EXPECT_NE(s.find(u.version_name), std::string::npos);
  }
  EXPECT_NE(s.find("controller:"), std::string::npos);
}

TEST(UnitMapTest, PaperNamesAreRegistered) {
  UnitMap m = UnitMap::paper_units();
  for (const char* name : {"adder_1", "adder_2", "adder_3", "mult_1",
                           "mult_2", "ripple_carry_adder"}) {
    EXPECT_TRUE(m.contains(name)) << name;
  }
  EXPECT_FALSE(m.contains("warp_core"));
  library::ResourceVersion v{"warp_core", library::ResourceClass::kAdder,
                             1.0, 1, 0.9};
  EXPECT_THROW(m.build(v, 8), Error);
  m.set("warp_core", &circuits::kogge_stone_adder);
  EXPECT_EQ(m.build(v, 8).input_bits().size(), 17u);
}

}  // namespace
}  // namespace rchls::rtl
