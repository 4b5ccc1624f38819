// Differential fuzzing of the wire codec (api/wire.hpp). The decoders
// read untrusted bytes -- request files, serve sockets, on-disk cache
// entries -- so the contract under fire is total: for ANY input,
// decode_request/decode_result either return a value whose re-encoding
// is a byte fixed point, or throw rchls::Error. No crashes, no hangs,
// no foreign exception types, no partially-constructed results.
//
// Three layers, cheapest guarantees first:
//  1. the curated seed corpus (tests/data/fuzz_seed/*.wire) replays as a
//     spec: valid_* decode canonically, invalid_* reject cleanly;
//  2. seeded mutation of valid envelopes (all six request kinds plus
//     result envelopes) probes the grey zone between those poles;
//  3. raw random bytes probe the no-structure-at-all floor.
// Iteration counts scale with RCHLS_FUZZ_ITERS (fuzz_common.hpp); every
// failure reproduces from the fixed seeds below.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/wire.hpp"
#include "dfg/generate.hpp"
#include "fuzz_common.hpp"
#include "library/resource.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rchls::api {
namespace {

using testing::fuzz::iterations;
using testing::fuzz::mutate;
using testing::fuzz::random_bytes;
using testing::fuzz::seed_corpus;

// The differential oracle: accept-and-fix-point or throw rchls::Error.
// Returns true when the input decoded (so callers can count coverage).
bool check_request(const std::string& text) {
  try {
    Request req = wire::decode_request(text);
    std::string canonical = wire::encode(req);
    EXPECT_EQ(wire::encode(wire::decode_request(canonical)), canonical)
        << "decoded request does not re-encode to a fixed point";
    return true;
  } catch (const Error&) {
    return false;  // clean rejection -- the allowed alternative
  }
}

bool check_result(const std::string& text) {
  try {
    Result res = wire::decode_result(text);
    std::string canonical = wire::encode(res);
    EXPECT_EQ(wire::encode(wire::decode_result(canonical)), canonical)
        << "decoded result does not re-encode to a fixed point";
    return true;
  } catch (const Error&) {
    return false;
  }
}

// Valid canonical envelopes covering all six request kinds -- the
// mutation bases. Deterministic: graphs come from the pinned generator.
std::vector<std::string> request_envelopes() {
  library::ResourceLibrary lib = library::paper_library();
  dfg::GeneratorConfig gc;
  gc.num_nodes = 9;
  gc.seed = 17;
  dfg::Graph g = dfg::generate_random(gc);

  FindDesignRequest fd;
  fd.graph = g;
  fd.library = lib;
  fd.latency_bound = 12;
  fd.area_bound = 9.5;
  fd.engine = "combined";

  SweepRequest sw;
  sw.graph = g;
  sw.library = lib;
  sw.axis = SweepAxis::kArea;
  sw.latency_bounds = {12};
  sw.area_bounds = {6.0, 8.0, 9.5};

  GridRequest gr;
  gr.graph = g;
  gr.library = lib;
  gr.latency_bounds = {10, 12};
  gr.area_bounds = {8.0, 9.5};
  gr.baseline_versions = {{"adder_2", "mult_2"}};

  InjectRequest inj;
  inj.component = "ripple_carry_adder";
  inj.width = 4;
  inj.trials = 128;
  inj.seed = 3;

  RankGatesRequest rk;
  rk.component = "kogge_stone_adder";
  rk.width = 4;
  rk.trials = 64;
  rk.top = 3;

  StaRequest st;
  st.graph = g;
  st.library = lib;
  st.versions = "most_reliable";
  st.width = 4;
  st.clock = 9.5;
  st.top_paths = 2;
  st.top = 5;
  st.trials = 64;
  st.seed = 11;

  return {wire::encode(Request(fd)), wire::encode(Request(sw)),
          wire::encode(Request(gr)), wire::encode(Request(inj)),
          wire::encode(Request(rk)), wire::encode(Request(st))};
}

// Seed-corpus replay: the curated files are the executable spec of the
// valid/invalid boundary, and they run before any mutation does.
TEST(FuzzWire, SeedCorpusReplaysAsSpecified) {
  auto corpus = seed_corpus(".wire");
  ASSERT_GE(corpus.size(), 10u) << "fuzz_seed corpus went missing";
  for (const auto& [name, text] : corpus) {
    if (name.rfind("valid_", 0) == 0) {
      // Valid seeds were produced by encode(), so decoding must succeed
      // AND the file bytes must already be the canonical fixed point.
      if (name.find("request") != std::string::npos) {
        EXPECT_EQ(wire::encode(wire::decode_request(text)), text) << name;
      } else {
        EXPECT_EQ(wire::encode(wire::decode_result(text)), text) << name;
      }
    } else {
      EXPECT_FALSE(check_request(text) || check_result(text))
          << name << " should be rejected by both decoders";
    }
  }
}

TEST(FuzzWire, MutatedEnvelopesNeverCrash) {
  std::vector<std::string> bases = request_envelopes();
  for (const auto& [name, text] : seed_corpus(".wire")) {
    if (name.rfind("valid_", 0) == 0) bases.push_back(text);
  }
  Rng rng(0xF022BA5E);
  std::size_t iters = iterations(2000);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    std::string mutant = mutate(rng, bases[i % bases.size()]);
    if (check_request(mutant)) ++accepted;
    check_result(mutant);
  }
  // Mostly rejections by construction; a mutant that survives decoding
  // intact is fine, the loop only demands the oracle held every time.
  SCOPED_TRACE(accepted);
}

TEST(FuzzWire, RawRandomBytesNeverCrash) {
  Rng rng(0xDEADBEA7);
  std::size_t iters = iterations(2000);
  for (std::size_t i = 0; i < iters; ++i) {
    std::string noise = random_bytes(rng, 512);
    check_request(noise);
    check_result(noise);
  }
}

}  // namespace
}  // namespace rchls::api
