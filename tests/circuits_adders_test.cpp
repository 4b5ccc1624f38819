#include <gtest/gtest.h>

#include "circuits/adders.hpp"
#include "netlist/sim.hpp"
#include "netlist/stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rchls::circuits {
namespace {

using netlist::Netlist;
using netlist::Simulator;

using AdderGen = Netlist (*)(int);

struct AdderCase {
  const char* name;
  AdderGen gen;
  int width;
};

// Without this, gtest prints the case as raw bytes, pointers included, and
// the ctest names gtest_discover_tests builds from that change from build to
// build and from run to run.
void PrintTo(const AdderCase& c, std::ostream* os) {
  *os << c.name << "/" << c.width;
}

class AdderFunctional : public ::testing::TestWithParam<AdderCase> {};

TEST_P(AdderFunctional, MatchesReferenceArithmetic) {
  const auto& param = GetParam();
  Netlist nl = param.gen(param.width);
  Simulator sim(nl);
  int w = param.width;
  std::uint64_t mask = w == 64 ? ~0ULL : ((1ULL << w) - 1);

  auto check = [&](std::uint64_t a, std::uint64_t b, std::uint64_t cin) {
    auto out = sim.run_scalar({a & mask, b & mask, cin & 1});
    // out[0] = sum, out[1] = cout.
    unsigned __int128 full = static_cast<unsigned __int128>(a & mask) +
                             (b & mask) + (cin & 1);
    EXPECT_EQ(out[0], static_cast<std::uint64_t>(full) & mask)
        << param.name << " width " << w << " a=" << a << " b=" << b;
    EXPECT_EQ(out[1], static_cast<std::uint64_t>(full >> w) & 1)
        << param.name << " cout, width " << w;
  };

  if (w <= 4) {
    for (std::uint64_t a = 0; a <= mask; ++a) {
      for (std::uint64_t b = 0; b <= mask; ++b) {
        check(a, b, 0);
        check(a, b, 1);
      }
    }
  } else {
    Rng rng(1234 + static_cast<std::uint64_t>(w));
    check(0, 0, 0);
    check(mask, mask, 1);
    check(mask, 1, 0);
    for (int i = 0; i < 200; ++i) {
      check(rng.next_u64(), rng.next_u64(), rng.next_u64());
    }
  }
}

std::vector<AdderCase> adder_cases() {
  std::vector<AdderCase> cases;
  for (int w : {1, 2, 3, 4, 5, 8, 13, 16, 32, 64}) {
    cases.push_back({"ripple", &ripple_carry_adder, w});
    cases.push_back({"brent_kung", &brent_kung_adder, w});
    cases.push_back({"kogge_stone", &kogge_stone_adder, w});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWidths, AdderFunctional,
                         ::testing::ValuesIn(adder_cases()),
                         [](const auto& info) {
                           return std::string(info.param.name) + "_w" +
                                  std::to_string(info.param.width);
                         });

TEST(Adders, FullAdderTruthTable) {
  Netlist nl("fa");
  auto a = nl.add_input_bus("a", 1).bits[0];
  auto b = nl.add_input_bus("b", 1).bits[0];
  auto c = nl.add_input_bus("c", 1).bits[0];
  BitPair fa = full_adder(nl, a, b, c);
  nl.add_output_bus("s", {fa.sum});
  nl.add_output_bus("co", {fa.carry});
  Simulator sim(nl);
  for (int v = 0; v < 8; ++v) {
    auto out = sim.run_scalar({static_cast<std::uint64_t>(v & 1),
                               static_cast<std::uint64_t>((v >> 1) & 1),
                               static_cast<std::uint64_t>((v >> 2) & 1)});
    int ones = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
    EXPECT_EQ(out[0], static_cast<std::uint64_t>(ones & 1));
    EXPECT_EQ(out[1], static_cast<std::uint64_t>(ones >> 1));
  }
}

TEST(Adders, PrefixAddersAreShallowerThanRipple) {
  auto ripple = netlist::compute_stats(ripple_carry_adder(16));
  auto bk = netlist::compute_stats(brent_kung_adder(16));
  auto ks = netlist::compute_stats(kogge_stone_adder(16));
  EXPECT_LT(bk.depth, ripple.depth);
  EXPECT_LT(ks.depth, ripple.depth);
  // Kogge-Stone trades area for the minimum depth.
  EXPECT_LE(ks.depth, bk.depth);
  EXPECT_GT(ks.area, bk.area);
}

TEST(Adders, RippleIsSmallest) {
  auto ripple = netlist::compute_stats(ripple_carry_adder(16));
  auto bk = netlist::compute_stats(brent_kung_adder(16));
  EXPECT_LT(ripple.area, bk.area);
}

TEST(Adders, RejectsBadWidths) {
  EXPECT_THROW(ripple_carry_adder(0), Error);
  EXPECT_THROW(brent_kung_adder(-3), Error);
  EXPECT_THROW(kogge_stone_adder(65), Error);
}

}  // namespace
}  // namespace rchls::circuits
