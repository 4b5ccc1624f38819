#include "sched/density.hpp"

#include <algorithm>
#include <numeric>

#include "dfg/timing.hpp"
#include "util/error.hpp"

namespace rchls::sched {

namespace {

using dfg::Graph;
using dfg::NodeId;

/// Shrinks est/lst windows to respect all currently fixed start times
/// (fixed nodes have est == lst). One forward and one backward pass.
void propagate_windows(const Graph& g, std::span<const int> delays,
                       const std::vector<NodeId>& topo, std::vector<int>& est,
                       std::vector<int>& lst) {
  for (NodeId id : topo) {
    for (NodeId p : g.predecessors(id)) {
      est[id] = std::max(est[id], est[p] + delays[p]);
    }
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    NodeId id = *it;
    for (NodeId s : g.successors(id)) {
      lst[id] = std::min(lst[id], lst[s] - delays[id]);
    }
  }
}

}  // namespace

Schedule density_schedule(const dfg::Graph& g, std::span<const int> delays,
                          int latency, std::span<const int> node_group) {
  if (node_group.size() != g.node_count()) {
    throw Error("density_schedule: node_group size mismatch");
  }
  const std::size_t n = g.node_count();
  std::vector<int> est = dfg::asap(g, delays);
  std::vector<int> lst = dfg::alap(g, delays, latency);  // throws if infeasible
  const auto& topo = g.topological_order();

  // Fix operations in increasing-mobility order; recompute the order lazily
  // after each placement since windows shrink.
  std::vector<bool> fixed(n, false);
  const std::size_t steps = static_cast<std::size_t>(latency);

  for (std::size_t placed = 0; placed < n; ++placed) {
    // Select the unfixed node with the smallest current mobility.
    NodeId victim = 0;
    bool found = false;
    for (NodeId id = 0; id < n; ++id) {
      if (fixed[id]) continue;
      if (!found) {
        victim = id;
        found = true;
        continue;
      }
      int mv = lst[id] - est[id];
      int mb = lst[victim] - est[victim];
      if (mv < mb || (mv == mb && est[id] < est[victim])) victim = id;
    }
    if (!found) break;

    // Distribution graph of the victim's type over all steps, excluding
    // the victim itself.
    std::vector<double> dg(steps, 0.0);
    for (NodeId u = 0; u < n; ++u) {
      if (u == victim || node_group[u] != node_group[victim]) continue;
      double w = 1.0 / static_cast<double>(lst[u] - est[u] + 1);
      for (int s = est[u]; s <= lst[u]; ++s) {
        for (int c = s; c < s + delays[u]; ++c) {
          dg[static_cast<std::size_t>(c)] += w;
        }
      }
    }

    // Least-dense feasible start step; ties break toward the earliest step
    // (keeps schedules deterministic and close to ASAP).
    int best_t = est[victim];
    double best_cost = 0.0;
    bool first = true;
    for (int t = est[victim]; t <= lst[victim]; ++t) {
      double cost = 0.0;
      for (int c = t; c < t + delays[victim]; ++c) {
        cost += dg[static_cast<std::size_t>(c)];
      }
      if (first || cost < best_cost - 1e-12) {
        best_cost = cost;
        best_t = t;
        first = false;
      }
    }

    est[victim] = lst[victim] = best_t;
    fixed[victim] = true;
    propagate_windows(g, delays, topo, est, lst);
  }

  Schedule s;
  s.start = std::move(est);
  s.latency = computed_latency(g, delays, s.start);
  validate_schedule(g, delays, s);
  return s;
}

}  // namespace rchls::sched
