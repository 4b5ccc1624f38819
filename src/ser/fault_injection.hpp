// Monte-Carlo single-event-transient (SET) injection on gate-level
// netlists.
//
// This is our executable substitute for the paper's MAX-layout + HSPICE
// per-node characterization ([8]'s methodology): strike a random gate under
// a random input vector, propagate the flipped value through the logic, and
// observe whether any primary output changes. The observed corruption
// probability captures *logical masking*; *electrical* and
// *latching-window* masking -- analog effects a logic simulator cannot see
// -- enter as analytic derating factors, as is standard practice.
//
// Campaigns run on the cone-limited incremental FaultEngine
// (netlist/fault_engine.hpp): one golden evaluation per 64-lane input
// batch, then per-strike resimulation of only the live part of the
// victim's fanout cone. inject_all_gates goes further with critical path
// tracing: each gate's strike is resimulated only up to its immediate
// post-dominator, whose observability is already known. Results are
// bit-identical to the brute-force double-full-simulation oracle
// (inject_campaign_reference), which is kept for differential testing and
// benchmarking.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace rchls::ser {

struct InjectionConfig {
  /// Total number of injected strikes (rounded up to a multiple of 64;
  /// the simulator evaluates 64 input patterns per pass).
  std::size_t trials = 64 * 256;
  /// Probability that a strike of sufficient charge survives electrical
  /// attenuation on its way to a latch.
  double electrical_derating = 0.4;
  /// Probability that a surviving pulse overlaps a latching window.
  double latching_window_derating = 0.2;
  std::uint64_t seed = 1;
};

struct InjectionResult {
  std::size_t trials = 0;
  /// Strikes whose flip reached at least one primary output (i.e. were not
  /// logically masked).
  std::size_t propagated = 0;
  /// propagated / trials.
  double logical_sensitivity = 0.0;
  /// logical_sensitivity * electrical * latching-window deratings;
  /// proportional to the circuit's SER once multiplied by flux, area and
  /// the per-node charge term.
  double susceptibility = 0.0;
  /// 95% half-width of the logical_sensitivity estimate, from the Wilson
  /// score interval (measured around its center, (p + z^2/2n) / (1 +
  /// z^2/n)). Unlike the normal approximation this stays positive and
  /// honest at p near 0 or 1 -- exactly the small-p regime that redundant
  /// (voted) components produce -- at the cost of no longer being centered
  /// on the point estimate itself.
  double half_width_95 = 0.0;
};

/// Runs a whole-circuit campaign: each trial picks a uniformly random logic
/// gate and a fresh random input vector.
InjectionResult inject_campaign(const netlist::Netlist& nl,
                                const InjectionConfig& config);

/// Per-gate campaign: strikes only `gate` under `trials` random vectors.
/// Used to characterize individual nodes, mirroring the paper's "each of
/// the nodes in the netlist can be characterized individually".
InjectionResult inject_gate(const netlist::Netlist& nl, netlist::GateId gate,
                            const InjectionConfig& config);

/// One logic gate's campaign outcome within inject_all_gates.
struct GateSensitivity {
  netlist::GateId gate = 0;
  InjectionResult result;
};

/// Characterizes EVERY logic gate at once: each 64-lane pass draws one
/// input batch, evaluates the golden values a single time, and traces
/// every gate against that shared golden -- collapsing the per-node
/// characterization loop from gate_count full campaigns into one sweep.
/// Gates are visited in descending id. A gate that reaches no output
/// costs nothing; any other gate is resimulated only up to its immediate
/// post-dominator d (over the live fanouts), and its corrupted lanes are
/// the lanes where it flips d that d's own flip corrupts. Only a gate
/// whose paths reach several outputs without a common gate gets a
/// full-cone injection.
/// Each gate sees `config.trials` strikes (the same input batches for
/// all gates), and its count equals inject_gate's for the same config.
/// Results are in ascending gate-id order and bit-identical at every
/// worker count.
std::vector<GateSensitivity> inject_all_gates(const netlist::Netlist& nl,
                                              const InjectionConfig& config);

/// Brute-force oracle for inject_campaign: two full-netlist bit-parallel
/// simulations per 64-lane pass plus an output comparison loop (the
/// pre-FaultEngine implementation). Bit-identical to inject_campaign by
/// construction; kept as the differential-testing oracle and the benchmark
/// baseline for the cone-limited engine.
InjectionResult inject_campaign_reference(const netlist::Netlist& nl,
                                          const InjectionConfig& config);

}  // namespace rchls::ser
