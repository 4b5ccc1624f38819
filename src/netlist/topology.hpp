// Structural analysis of a Netlist: CSR fanout adjacency, topological
// levels, and liveness (which gates can reach a primary output).
//
// A Topology is computed once per netlist (three linear passes) and then
// shared read-only by every consumer -- most importantly the incremental
// FaultEngine, which uses the fanout lists and levels to resimulate only
// the disturbed part of a struck gate's fanout, and the liveness flags to
// never evaluate logic whose value no output can observe.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace rchls::netlist {

/// Immutable structural view of a Netlist. All queries are O(1). Safe for
/// concurrent use from multiple threads.
class Topology {
 public:
  explicit Topology(const Netlist& nl);

  std::size_t gate_count() const { return level_.size(); }

  // -- fanout adjacency (CSR) ---------------------------------------------

  /// Gates that read gate `id` directly. Duplicate edges from a gate whose
  /// two fanins coincide are collapsed to one.
  const GateId* fanout_begin(GateId id) const {
    return fanout_targets_.data() + fanout_offsets_[id];
  }
  const GateId* fanout_end(GateId id) const {
    return fanout_targets_.data() + fanout_offsets_[id + 1];
  }
  std::size_t fanout_count(GateId id) const {
    return fanout_offsets_[id + 1] - fanout_offsets_[id];
  }

  // -- levels --------------------------------------------------------------

  /// Topological level: 0 for inputs/constants, 1 + max(fanin levels) for
  /// logic gates. A gate's level is strictly greater than each fanin's.
  std::uint32_t level(GateId id) const { return level_[id]; }
  std::uint32_t max_level() const { return max_level_; }

  // -- port / kind summaries ----------------------------------------------

  /// True if the gate drives at least one primary-output bit.
  bool is_output_bit(GateId id) const { return is_output_[id] != 0; }

  /// True if some primary-output bit is reachable from the gate (the gate
  /// itself included). A flip on a gate that is not live can never be
  /// observed, whatever the inputs.
  bool is_live(GateId id) const { return is_live_[id] != 0; }

  /// Ids of all gates with fanins (the strike targets), ascending.
  const std::vector<GateId>& logic_gates() const { return logic_gates_; }

 private:
  std::vector<std::size_t> fanout_offsets_;  ///< size gate_count + 1
  std::vector<GateId> fanout_targets_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> is_output_;
  std::vector<std::uint8_t> is_live_;
  std::vector<GateId> logic_gates_;
  std::uint32_t max_level_ = 0;
};

}  // namespace rchls::netlist
