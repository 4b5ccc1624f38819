// Cone-limited incremental fault simulation.
//
// The brute-force way to measure a single-event transient is two
// full-netlist bit-parallel passes per 64-lane batch: one golden, one
// faulty, then an output-by-output comparison. But a strike at gate g can
// only disturb g's transitive fanout cone, only the live part of that cone
// (the gates from which some output is reachable, Topology::is_live) can
// be observed, and in real circuits most flips are logically masked within
// a few levels. FaultEngine exploits all three facts (the classic
// concurrent-fault-simulation idea from ATPG):
//
//   1. set_inputs() evaluates the golden values ONCE per input batch;
//   2. inject() resimulates only the victim's live fanout cone via a
//      level-ordered frontier worklist, early-exiting the moment every
//      64-lane diff word has gone to zero (the fault is fully masked);
//      a gate that reaches no output is never enqueued;
//   3. output corruption is read straight off the diff words as the
//      frontier crosses primary-output bits -- no second full pass, no
//      golden/faulty output comparison loop.
//
// inject_until() runs the same frontier but stops at a given gate's level
// and returns that gate's diff word. When the gate post-dominates the
// victim, that word is all a caller needs to know about the strike's
// effect downstream (ser::inject_all_gates' critical path tracing).
//
// Faulty values live in an epoch-stamped overlay on top of the golden
// values, so consecutive inject() calls against the same golden batch cost
// O(disturbed cone), not O(netlist). The corruption words are bit-identical
// to the brute-force golden-vs-faulty comparison (enforced by the
// differential property test in tests/netlist_fault_engine_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/sim.hpp"
#include "netlist/topology.hpp"

namespace rchls::netlist {

/// Incremental single-fault simulator over one Netlist + Topology, both of
/// which must outlive the engine. Each engine instance is single-threaded;
/// parallel campaigns give every worker its own engine over the shared
/// read-only Topology.
class FaultEngine {
 public:
  FaultEngine(const Netlist& nl, const Topology& topo);

  /// Evaluates the golden (fault-free) values for a fresh 64-lane input
  /// batch. Must be called before inject().
  void set_inputs(const std::vector<std::uint64_t>& input_words);

  /// Golden per-gate words of the current batch.
  const std::vector<std::uint64_t>& golden() const { return golden_; }

  /// Injects `fault` against the current golden batch and returns the
  /// 64-lane output-corruption word: bit L is set iff some primary-output
  /// bit differs from golden in lane L. Only the disturbed part of the
  /// victim's live fanout cone is evaluated.
  std::uint64_t inject(const Fault& fault);

  /// Injects `fault` like inject(), but resimulates only the gates at
  /// levels up to `stop`'s and returns `stop`'s diff word: bit L is set iff
  /// `stop`'s value differs from golden in lane L. Exact for every gate at
  /// or below that level, so the word is the one a full resimulation would
  /// give. `stop` must be live (gates that reach no output are never
  /// evaluated); throws Error otherwise.
  std::uint64_t inject_until(const Fault& fault, GateId stop);

  /// Gates re-evaluated by the last inject() or inject_until() -- the
  /// dynamic cone size.
  /// Exposed so tests can pin down the early-exit behaviour.
  std::size_t last_evaluations() const { return last_evaluations_; }

 private:
  std::uint64_t value_of(GateId id) const {
    return stamp_[id] == epoch_ ? faulty_[id] : golden_[id];
  }
  std::uint64_t eval_gate(const Gate& g) const;
  void enqueue_fanouts(GateId id, std::uint32_t last_level);
  void next_epoch();
  /// The frontier loop behind inject() and inject_until(): resimulates the
  /// victim's live fanout up to `last_level` and returns the corruption
  /// seen on output bits at or below it.
  std::uint64_t propagate(const Fault& fault, std::uint32_t last_level);

  const Netlist& nl_;
  const Topology& topo_;
  bool have_inputs_ = false;

  std::vector<std::uint64_t> golden_;
  /// Overlay: faulty_[g] is the faulty value iff stamp_[g] == epoch_.
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;
  /// queued_[g] == epoch_ iff g already sits in a level bucket.
  std::vector<std::uint32_t> queued_;
  /// Frontier worklist bucketed by topological level.
  std::vector<std::vector<GateId>> buckets_;
  std::uint32_t epoch_ = 0;
  std::size_t pending_ = 0;
  std::size_t last_evaluations_ = 0;
};

}  // namespace rchls::netlist
