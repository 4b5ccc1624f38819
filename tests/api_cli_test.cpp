// In-process tests of the CLI (api/cli.hpp): the unified error contract
// (every failure is one "error: ..." line with documented exit codes),
// and the shared-writer guarantee -- `rchls synth`/`inject` with
// --format json are byte-identical to `rchls run` on the equivalent
// one-action scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "api/cli.hpp"
#include "parallel/config.hpp"
#include "serve/server.hpp"
#include "temp_dir.hpp"
#include "util/strings.hpp"

namespace rchls::api {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliRun r;
  r.code = cli_main(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

// The CLI accepts --jobs, which writes the process-global config; keep
// tests hermetic.
class ApiCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_jobs_ = parallel::global_config().jobs;
    dir_ = rchls::testing::unique_test_dir("api_cli_test_tmp");
  }
  void TearDown() override {
    parallel::global_config().jobs = saved_jobs_;
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path write(const std::string& name,
                              const std::string& text) {
    std::filesystem::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p;
  }

  std::size_t saved_jobs_ = 0;
  std::filesystem::path dir_;
};

// ------------------------------------------------- error contract (codes)

TEST_F(ApiCliTest, MissingCommandIsExitOneWithUsage) {
  CliRun r = cli({});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(starts_with(r.err, "error: missing command")) << r.err;
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST_F(ApiCliTest, EveryBadArgumentPathSharesTheErrorPrefix) {
  // One representative per failure family; all exit 1, all "error: ".
  const std::vector<std::vector<std::string>> cases = {
      {"frobnicate"},                                  // unknown command
      {"synth"},                                       // missing positional
      {"synth", "fir16"},                              // missing bounds
      {"synth", "fir16", "--latency", "x", "--area", "11"},  // bad number
      {"synth", "fir16", "--latency"},                 // missing value
      {"synth", "fir16", "--wat"},                     // unknown flag
      {"synth", "fir16", "--latency", "11", "--area", "11",
       "--engine", "quantum"},                         // unknown engine
      {"synth", "fir16", "--latency", "11", "--area", "11",
       "--scheduler", "magic"},                        // unknown scheduler
      {"synth", "nope.dfg", "--latency", "11", "--area", "11"},  // no file
      {"run", "nope.scn"},                             // missing scenario
      {"run", "x.scn", "--format", "yaml"},            // bad format
      {"sweep", "fir16", "--latency", "12"},           // missing areas
      {"inject", "ripple_carry_adder", "--width", "0"},  // bad width
      {"inject", "not_a_component"},                   // unknown component
      {"bench", "--format", "json"},                   // format on bench
      {"synth", "fir16", "--latency", "11", "--area", "11",
       "--verify-cache"},                              // flag on wrong cmd
      {"run", "x.scn", "--trials", "64"},              // inject flag on run
      {"inject", "ripple_carry_adder", "--seed", "-1"},  // negative seed
      {"synth", "fir16", "--latency", "11", "--area", "11",
       "--datapath", "--format", "json"},              // datapath sans table
  };
  for (const auto& args : cases) {
    CliRun r = cli(args);
    std::string joined;
    for (const auto& a : args) joined += a + " ";
    EXPECT_EQ(r.code, 1) << joined;
    EXPECT_TRUE(starts_with(r.err, "error: ")) << joined << "-> " << r.err;
  }

  // Socket flags a command would ignore (no fleet to apply them to, or
  // fleet status, whose probes never retry) and the retired sharding
  // surface fail for the stated reason.
  const std::vector<std::string> sweep = {"sweep", "fir16", "--latency",
                                          "11", "--areas", "9,10"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> v = sweep;
    v.insert(v.end(), extra.begin(), extra.end());
    return v;
  };
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      exact = {
          {with({"--retries", "5", "--timeout-ms", "10"}),
           "error: --timeout-ms needs --endpoints"},
          {with({"--retries", "5"}), "error: --retries needs --endpoints"},
          {{"run", "x.scn", "--timeout-ms", "10"},
           "error: --timeout-ms needs --endpoints"},
          {{"sta", "ripple_carry_adder", "--retries", "1"},
           "error: --retries needs --endpoints"},
          {{"fleet", "status", "--endpoints", "d.sock", "--retries", "1"},
           "error: --retries does not apply to 'rchls fleet'"},
          {with({"--shards", "2"}), "error: unknown flag '--shards'"},
          {{"exec-request", "req.json", "res.json"},
           "error: unknown command 'exec-request'"},
      };
  for (const auto& [args, prefix] : exact) {
    CliRun r = cli(args);
    EXPECT_EQ(r.code, 1) << prefix;
    EXPECT_TRUE(starts_with(r.err, prefix)) << r.err;
  }
}

TEST_F(ApiCliTest, MisplacedFlagsFailBeforeAnyWorkRuns) {
  // Argument validation happens before the engines run, so even an
  // otherwise-valid synth with a misplaced flag is a cheap exit-1.
  CliRun r = cli({"synth", "fir16", "--latency", "11", "--area", "11",
                  "--top", "5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(starts_with(r.err, "error: --top does not apply"))
      << r.err;
}

TEST_F(ApiCliTest, SeedAcceptsTheFullUint64Range) {
  CliRun r = cli({"inject", "ripple_carry_adder", "--width", "4",
                  "--trials", "128", "--seed", "3000000000"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST_F(ApiCliTest, InfeasibleSynthIsExitTwo) {
  CliRun r = cli({"synth", "fir16", "--latency", "1", "--area", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_TRUE(starts_with(r.err, "error: no solution: ")) << r.err;
  EXPECT_TRUE(r.out.empty());
}

TEST_F(ApiCliTest, SuccessIsExitZero) {
  EXPECT_EQ(cli({"bench"}).code, 0);
  CliRun r = cli({"synth", "fig4_example", "--latency", "6", "--area",
                  "8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(r.err.empty());
  EXPECT_NE(r.out.find("reliability"), std::string::npos);
}

// ------------------------------------------- shared writers, --format/--out

TEST_F(ApiCliTest, SynthJsonIsByteIdenticalToEquivalentScenario) {
  auto scn = write("synth_equiv.scn",
                   "scenario synth\n"
                   "graph fir16\n"
                   "find_design latency=11 area=11 label=synth\n");
  CliRun direct = cli({"synth", "fir16", "--latency", "11", "--area",
                       "11", "--format", "json"});
  CliRun scenario = cli({"run", scn.string(), "--format", "json"});
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_EQ(scenario.code, 0) << scenario.err;
  EXPECT_EQ(direct.out, scenario.out);
}

TEST_F(ApiCliTest, InjectJsonIsByteIdenticalToEquivalentScenario) {
  auto scn = write("inject_equiv.scn",
                   "scenario inject\n"
                   "inject ripple_carry_adder width=4 trials=128 "
                   "label=inject\n"
                   "rank_gates ripple_carry_adder width=4 trials=128 "
                   "top=3 label=rank_gates\n");
  CliRun direct = cli({"inject", "ripple_carry_adder", "--width", "4",
                       "--trials", "128", "--top", "3", "--format",
                       "json"});
  CliRun scenario = cli({"run", scn.string(), "--format", "json"});
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_EQ(scenario.code, 0) << scenario.err;
  EXPECT_EQ(direct.out, scenario.out);
}

TEST_F(ApiCliTest, SynthSupportsCsvAndTableFormats) {
  CliRun csv = cli({"synth", "fig4_example", "--latency", "6", "--area",
                    "8", "--format", "csv"});
  EXPECT_EQ(csv.code, 0);
  EXPECT_NE(csv.out.find("engine,latency_bound,area_bound,solved"),
            std::string::npos)
      << csv.out;

  CliRun table = cli({"synth", "fig4_example", "--latency", "6",
                      "--area", "8", "--format", "table"});
  EXPECT_EQ(table.code, 0);
  EXPECT_NE(table.out.find("== synth (find_design) =="),
            std::string::npos);
}

TEST_F(ApiCliTest, OutFlagWritesTheReportToAFile) {
  std::filesystem::path out_path = dir_ / "report.json";
  CliRun r = cli({"inject", "ripple_carry_adder", "--width", "4",
                  "--trials", "128", "--format", "json", "--out",
                  out_path.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(r.out.empty());

  std::ifstream in(out_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"kind\": \"inject\""),
            std::string::npos);

  CliRun direct = cli({"inject", "ripple_carry_adder", "--width", "4",
                       "--trials", "128", "--format", "json"});
  EXPECT_EQ(content.str(), direct.out);
}

TEST_F(ApiCliTest, SweepDefaultsToCsv) {
  CliRun r = cli({"sweep", "fig4_example", "--latency", "6", "--areas",
                  "6,8,10"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# action sweep sweep"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("latency_bound,area_bound,reliability"),
            std::string::npos);
}

// ------------------------------------------------------------------- sta

TEST_F(ApiCliTest, StaJsonIsByteIdenticalToEquivalentScenario) {
  auto scn = write("sta_equiv.scn",
                   "scenario sta\n"
                   "sta brent_kung_adder width=4 trials=64 top=3 "
                   "top_paths=2 label=sta\n");
  CliRun direct = cli({"sta", "brent_kung_adder", "--width", "4",
                       "--trials", "64", "--top", "3", "--top-paths",
                       "2", "--format", "json"});
  CliRun scenario = cli({"run", scn.string(), "--format", "json"});
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_EQ(scenario.code, 0) << scenario.err;
  EXPECT_EQ(direct.out, scenario.out);
}

TEST_F(ApiCliTest, GraphStaJsonIsByteIdenticalToEquivalentScenario) {
  // Graph targets carry the design context (library + version policy);
  // the shared-writer guarantee must hold for that shape too.
  auto scn = write("sta_graph_equiv.scn",
                   "scenario sta\n"
                   "graph fig4_example\n"
                   "library paper\n"
                   "sta versions=most_reliable width=4 trials=64 "
                   "clock=20 top=5 top_paths=2 label=sta\n");
  CliRun direct = cli({"sta", "fig4_example", "--versions",
                       "most_reliable", "--width", "4", "--trials",
                       "64", "--clock", "20", "--top", "5",
                       "--top-paths", "2", "--format", "json"});
  CliRun scenario = cli({"run", scn.string(), "--format", "json"});
  ASSERT_EQ(direct.code, 0) << direct.err;
  ASSERT_EQ(scenario.code, 0) << scenario.err;
  EXPECT_EQ(direct.out, scenario.out);
  EXPECT_NE(direct.out.find("\"kind\": \"sta\""), std::string::npos);
}

TEST_F(ApiCliTest, StaBadArgumentsShareTheErrorPrefix) {
  const std::vector<std::vector<std::string>> cases = {
      {"sta"},                                         // missing target
      {"sta", "not_a_component_or_file"},              // unknown target
      {"sta", "ripple_carry_adder", "--width", "0"},   // bad width
      {"sta", "ripple_carry_adder", "--clock", "-1"},  // negative clock
      {"sta", "ripple_carry_adder", "--top-paths", "-1"},
      {"sta", "fig4_example", "--versions", "slowest"},
      {"sta", "ripple_carry_adder", "--latency", "4"},  // synth flag
  };
  for (const auto& args : cases) {
    CliRun r = cli(args);
    std::string joined;
    for (const auto& a : args) joined += a + " ";
    EXPECT_EQ(r.code, 1) << joined;
    EXPECT_TRUE(starts_with(r.err, "error: ")) << joined << "-> " << r.err;
  }
}

// The determinism matrix for `rchls sta`: the JSON report is
// byte-identical at --jobs 1 vs 8 and over a two-daemon fleet
// (--endpoints against in-process serve daemons).
TEST_F(ApiCliTest, StaReportIsByteIdenticalAcrossJobsAndFleet) {
  const std::vector<std::string> base = {
      "sta", "kogge_stone_adder", "--width", "4", "--trials", "64",
      "--seed", "3", "--top", "5", "--format", "json"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> v = base;
    v.insert(v.end(), extra.begin(), extra.end());
    return v;
  };

  CliRun ref = cli(with({"--jobs", "1"}));
  ASSERT_EQ(ref.code, 0) << ref.err;
  CliRun eight = cli(with({"--jobs", "8"}));
  ASSERT_EQ(eight.code, 0) << eight.err;
  EXPECT_EQ(eight.out, ref.out) << "sta differs between jobs 1 and 8";

  // Two daemons, each with its own log stream (shared streams race).
  std::vector<std::string> socks = {(dir_ / "d0.sock").string(),
                                    (dir_ / "d1.sock").string()};
  std::vector<std::unique_ptr<std::ostringstream>> logs;
  std::vector<std::unique_ptr<serve::Server>> daemons;
  for (const auto& sock : socks) {
    logs.push_back(std::make_unique<std::ostringstream>());
    serve::ServerOptions so;
    so.socket_path = sock;
    so.workers = 2;
    so.log = logs.back().get();
    daemons.push_back(std::make_unique<serve::Server>(std::move(so)));
  }
  CliRun fleet = cli(with({"--endpoints", socks[0] + "," + socks[1]}));
  ASSERT_EQ(fleet.code, 0) << fleet.err;
  EXPECT_EQ(fleet.out, ref.out) << "sta differs over a 2-daemon fleet";
  EXPECT_NE(fleet.err.find("local_fallbacks=0"), std::string::npos)
      << fleet.err;
}

// ----------------------------------------------------------- verify-cache

TEST_F(ApiCliTest, VerifyCacheConfirmsWarmRunServedFromCache) {
  auto scn = write("verify.scn",
                   "scenario verify\n"
                   "graph fig4_example\n"
                   "find_design latency=6 area=8\n"
                   "inject ripple_carry_adder width=4 trials=128\n");
  CliRun r = cli({"run", scn.string(), "--format", "json",
                  "--verify-cache"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("cache: verified 2 actions"), std::string::npos)
      << r.err;
  EXPECT_NE(r.out.find("\"format_version\": 1"), std::string::npos);
}

}  // namespace
}  // namespace rchls::api
