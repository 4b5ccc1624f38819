#include "ser/fault_injection.hpp"

#include <cmath>
#include <limits>

#include "netlist/fault_engine.hpp"
#include "netlist/sim.hpp"
#include "netlist/topology.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"
#include "util/error.hpp"

namespace rchls::ser {

namespace {

using netlist::FaultEngine;
using netlist::GateId;
using netlist::Netlist;
using netlist::Simulator;
using netlist::Topology;

void validate_config(const InjectionConfig& config) {
  if (config.trials == 0) throw Error("inject: trials must be positive");
  if (config.electrical_derating < 0 || config.electrical_derating > 1 ||
      config.latching_window_derating < 0 ||
      config.latching_window_derating > 1) {
    throw Error("inject: derating factors must lie in [0, 1]");
  }
}

/// Wilson score 95% half-width for `propagated` successes in `n` trials.
double wilson_half_width_95(std::size_t propagated, std::size_t n) {
  constexpr double z = 1.96;
  double nn = static_cast<double>(n);
  double p = static_cast<double>(propagated) / nn;
  double z2_over_n = z * z / nn;
  return z / (1.0 + z2_over_n) *
         std::sqrt(std::max(p * (1.0 - p), 0.0) / nn +
                   z2_over_n / (4.0 * nn));
}

InjectionResult finalize(std::size_t trials, std::size_t propagated,
                         const InjectionConfig& config) {
  InjectionResult result;
  result.trials = trials;
  result.propagated = propagated;
  double n = static_cast<double>(trials);
  result.logical_sensitivity = static_cast<double>(propagated) / n;
  result.susceptibility = result.logical_sensitivity *
                          config.electrical_derating *
                          config.latching_window_derating;
  result.half_width_95 = wilson_half_width_95(propagated, trials);
  return result;
}

/// Immediate post-dominator of every live logic gate that drives no output
/// bit, over the live fanout graph closed by a virtual sink behind all
/// output bits; the sink is id gate_count(). Entries for other gates read
/// the sink and are never used.
///
/// Cooper-Harvey-Kennedy intersection: gate ids are a topological order,
/// and a gate's post-dominator is downstream of it, so one descending pass
/// sees every fanout's final entry before the gate itself, and walking up
/// from the smaller of two ids meets at their nearest common post-dominator.
std::vector<GateId> post_dominators(const Topology& topo) {
  constexpr GateId kNoGate = std::numeric_limits<GateId>::max();
  const auto sink = static_cast<GateId>(topo.gate_count());
  std::vector<GateId> ipdom(topo.gate_count(), sink);
  const auto& gates = topo.logic_gates();
  for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
    const GateId g = *it;
    if (!topo.is_live(g) || topo.is_output_bit(g)) continue;
    GateId dom = kNoGate;
    for (const GateId* f = topo.fanout_begin(g); f != topo.fanout_end(g);
         ++f) {
      if (!topo.is_live(*f)) continue;
      GateId other = *f;
      while (dom != kNoGate && dom != other) {
        if (dom < other) {
          dom = ipdom[dom];
        } else {
          other = ipdom[other];
        }
      }
      dom = other;
    }
    ipdom[g] = dom;
  }
  return ipdom;
}

/// Runs the campaign in lane-aligned chunks, striking `pick_gate(pass)` in
/// every lane of each 64-lane evaluation, and accumulates how many lanes
/// saw an output corruption. The 64 trials of a pass share one victim and
/// one golden evaluation; the strike itself resimulates only the victim's
/// fanout cone on the FaultEngine.
///
/// The netlist is validated and its Topology computed ONCE, before the
/// parallel region: worker chunks share them read-only. Each chunk draws
/// from its own Rng stream derived from (seed, chunk index) and chunk
/// counts are merged in chunk order, so the result is bit-identical at
/// every parallel::Config worker count.
template <typename PickGate>
InjectionResult run_campaign(const Netlist& nl, const Topology& topo,
                             const InjectionConfig& config,
                             PickGate&& pick_gate) {
  validate_config(config);

  auto chunks = parallel::partition_trials(config.trials, config.seed);
  std::vector<std::size_t> chunk_propagated(chunks.size(), 0);
  parallel::parallel_for(chunks.size(), [&](std::size_t ci) {
    const parallel::TrialChunk& chunk = chunks[ci];
    FaultEngine engine(nl, topo);
    Rng rng(chunk.seed);
    std::vector<std::uint64_t> inputs(nl.input_bits().size());
    std::size_t passes = chunk.trials / parallel::kLanes;
    std::size_t first_pass = chunk.first_trial / parallel::kLanes;
    std::size_t propagated = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (auto& w : inputs) w = rng.next_u64();

      GateId victim = pick_gate(first_pass + pass, rng);
      engine.set_inputs(inputs);
      std::uint64_t corrupted =
          engine.inject(netlist::Fault{victim, ~0ULL});
      propagated += static_cast<std::size_t>(__builtin_popcountll(corrupted));
    }
    chunk_propagated[ci] = propagated;
  });

  std::size_t trials = 0;
  std::size_t propagated = 0;
  for (const auto& chunk : chunks) trials += chunk.trials;
  for (std::size_t p : chunk_propagated) propagated += p;
  return finalize(trials, propagated, config);
}

}  // namespace

InjectionResult inject_campaign(const Netlist& nl,
                                const InjectionConfig& config) {
  nl.validate();
  const Topology topo(nl);
  const auto& gates = topo.logic_gates();
  if (gates.empty()) throw Error("inject_campaign: netlist has no logic");
  return run_campaign(nl, topo, config, [&gates](std::size_t, Rng& rng) {
    return gates[rng.next_below(gates.size())];
  });
}

InjectionResult inject_gate(const Netlist& nl, GateId gate,
                            const InjectionConfig& config) {
  if (gate >= nl.gate_count()) throw Error("inject_gate: gate out of range");
  if (netlist::fanin_count(nl.gate(gate).kind) == 0) {
    throw Error("inject_gate: target must be a logic gate");
  }
  nl.validate();
  const Topology topo(nl);
  return run_campaign(nl, topo, config,
                      [gate](std::size_t, Rng&) { return gate; });
}

std::vector<GateSensitivity> inject_all_gates(const Netlist& nl,
                                              const InjectionConfig& config) {
  validate_config(config);
  nl.validate();
  const Topology topo(nl);
  const auto& gates = topo.logic_gates();
  if (gates.empty()) throw Error("inject_all_gates: netlist has no logic");
  const std::vector<GateId> ipdom = post_dominators(topo);
  const auto sink = static_cast<GateId>(nl.gate_count());

  auto chunks = parallel::partition_trials(config.trials, config.seed);
  // Per-chunk, per-gate propagation counts; merged in chunk order below.
  std::vector<std::vector<std::size_t>> chunk_counts(
      chunks.size(), std::vector<std::size_t>(gates.size(), 0));
  parallel::parallel_for(chunks.size(), [&](std::size_t ci) {
    const parallel::TrialChunk& chunk = chunks[ci];
    FaultEngine engine(nl, topo);
    Rng rng(chunk.seed);
    std::vector<std::uint64_t> inputs(nl.input_bits().size());
    // obs[g]: the lanes of this pass in which a flip of g alone corrupts
    // some output -- exactly what engine.inject(Fault{g, ~0}) returns.
    std::vector<std::uint64_t> obs(nl.gate_count(), 0);
    std::vector<std::size_t>& counts = chunk_counts[ci];
    std::size_t passes = chunk.trials / parallel::kLanes;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (auto& w : inputs) w = rng.next_u64();
      engine.set_inputs(inputs);  // one golden eval shared by ALL victims
      // Descending ids: a gate's post-dominator is downstream of it, so its
      // word is ready when the gate is reached.
      for (std::size_t gi = gates.size(); gi-- > 0;) {
        const GateId g = gates[gi];
        const GateId d = ipdom[g];
        std::uint64_t word = 0;
        if (topo.is_output_bit(g)) {
          word = ~0ULL;
        } else if (!topo.is_live(g)) {
          word = 0;
        } else if (d == sink) {
          word = engine.inject(netlist::Fault{g, ~0ULL});
        } else if (obs[d] != 0) {
          // Every path from g to an output passes d, so a flip of g is seen
          // exactly in the lanes where it flips d and d's flip is seen.
          word = engine.inject_until(netlist::Fault{g, ~0ULL}, d) & obs[d];
        }
        obs[g] = word;
        counts[gi] += static_cast<std::size_t>(__builtin_popcountll(word));
      }
    }
  });

  std::size_t trials = 0;
  for (const auto& chunk : chunks) trials += chunk.trials;
  std::vector<GateSensitivity> out(gates.size());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    std::size_t propagated = 0;
    for (const auto& counts : chunk_counts) propagated += counts[gi];
    out[gi].gate = gates[gi];
    out[gi].result = finalize(trials, propagated, config);
  }
  return out;
}

InjectionResult inject_campaign_reference(const Netlist& nl,
                                          const InjectionConfig& config) {
  validate_config(config);
  nl.validate();
  const Topology topo(nl);
  const auto& gates = topo.logic_gates();
  if (gates.empty()) {
    throw Error("inject_campaign_reference: netlist has no logic");
  }

  auto chunks = parallel::partition_trials(config.trials, config.seed);
  std::vector<std::size_t> chunk_propagated(chunks.size(), 0);
  parallel::parallel_for(chunks.size(), [&](std::size_t ci) {
    const parallel::TrialChunk& chunk = chunks[ci];
    Simulator sim(nl);
    Rng rng(chunk.seed);
    std::vector<std::uint64_t> inputs(nl.input_bits().size());
    std::vector<std::uint64_t> golden, faulty;
    std::size_t passes = chunk.trials / parallel::kLanes;
    std::size_t propagated = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (auto& w : inputs) w = rng.next_u64();

      GateId victim = gates[rng.next_below(gates.size())];
      sim.eval(inputs);
      sim.pack_outputs(golden);
      sim.eval(inputs, netlist::Fault{victim, ~0ULL});
      sim.pack_outputs(faulty);

      std::uint64_t corrupted = 0;
      for (std::size_t i = 0; i < golden.size(); ++i) {
        corrupted |= golden[i] ^ faulty[i];
      }
      propagated += static_cast<std::size_t>(__builtin_popcountll(corrupted));
    }
    chunk_propagated[ci] = propagated;
  });

  std::size_t trials = 0;
  std::size_t propagated = 0;
  for (const auto& chunk : chunks) trials += chunk.trials;
  for (std::size_t p : chunk_propagated) propagated += p;
  return finalize(trials, propagated, config);
}

}  // namespace rchls::ser
