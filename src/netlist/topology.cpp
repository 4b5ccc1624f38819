#include "netlist/topology.hpp"

#include <algorithm>

namespace rchls::netlist {

Topology::Topology(const Netlist& nl) {
  const auto& gates = nl.gates();
  const std::size_t n = gates.size();

  level_.assign(n, 0);
  is_output_.assign(n, 0);
  fanout_offsets_.assign(n + 1, 0);

  // Pass 1: levels, logic-gate list, fanout degrees.
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = gates[id];
    int fi = fanin_count(g.kind);
    if (fi >= 1) {
      logic_gates_.push_back(id);
      std::uint32_t lvl = level_[g.fanin0] + 1;
      ++fanout_offsets_[g.fanin0 + 1];
      if (fi == 2 && g.fanin1 != g.fanin0) {
        lvl = std::max(lvl, level_[g.fanin1] + 1);
        ++fanout_offsets_[g.fanin1 + 1];
      }
      level_[id] = lvl;
      max_level_ = std::max(max_level_, lvl);
    }
  }
  for (GateId id : nl.output_bits()) is_output_[id] = 1;

  // Pass 2: prefix-sum the degrees and scatter the CSR targets.
  for (std::size_t i = 1; i <= n; ++i) {
    fanout_offsets_[i] += fanout_offsets_[i - 1];
  }
  fanout_targets_.resize(fanout_offsets_[n]);
  std::vector<std::size_t> cursor(fanout_offsets_.begin(),
                                  fanout_offsets_.end() - 1);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = gates[id];
    int fi = fanin_count(g.kind);
    if (fi >= 1) {
      fanout_targets_[cursor[g.fanin0]++] = id;
      if (fi == 2 && g.fanin1 != g.fanin0) {
        fanout_targets_[cursor[g.fanin1]++] = id;
      }
    }
  }

  // Pass 3: liveness. A fanout has a larger id than the gate it reads, so
  // one descending sweep settles every fanout's flag before the gate's.
  is_live_ = is_output_;
  for (GateId id = static_cast<GateId>(n); id-- > 0;) {
    for (const GateId* f = fanout_begin(id); f != fanout_end(id); ++f) {
      if (is_live_[*f]) {
        is_live_[id] = 1;
        break;
      }
    }
  }
}

}  // namespace rchls::netlist
