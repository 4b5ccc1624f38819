#include "sched/force_directed.hpp"

#include <algorithm>
#include <limits>

#include "dfg/timing.hpp"
#include "util/error.hpp"

namespace rchls::sched {

namespace {

using dfg::Graph;
using dfg::NodeId;

struct Windows {
  std::vector<int> est;
  std::vector<int> lst;
};

void propagate(const Graph& g, std::span<const int> delays,
               const std::vector<NodeId>& topo, Windows& w) {
  for (NodeId id : topo) {
    for (NodeId p : g.predecessors(id)) {
      w.est[id] = std::max(w.est[id], w.est[p] + delays[p]);
    }
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    NodeId id = *it;
    for (NodeId s : g.successors(id)) {
      w.lst[id] = std::min(w.lst[id], w.lst[s] - delays[id]);
    }
  }
}

/// Adds node u's occupancy probability distribution into dg (+sign) or
/// removes it (-sign).
void accumulate(std::vector<double>& dg, const Windows& w,
                std::span<const int> delays, NodeId u, double sign) {
  double p = sign / static_cast<double>(w.lst[u] - w.est[u] + 1);
  for (int s = w.est[u]; s <= w.lst[u]; ++s) {
    for (int c = s; c < s + delays[u]; ++c) {
      dg[static_cast<std::size_t>(c)] += p;
    }
  }
}

/// Force of constraining node u to window [a, b] against distribution
/// graph dg: sum over steps of dg * (p_new - p_old).
double window_force(const std::vector<double>& dg, const Windows& w,
                    std::span<const int> delays, NodeId u, int a, int b) {
  double force = 0.0;
  double p_old = 1.0 / static_cast<double>(w.lst[u] - w.est[u] + 1);
  for (int s = w.est[u]; s <= w.lst[u]; ++s) {
    for (int c = s; c < s + delays[u]; ++c) {
      force -= dg[static_cast<std::size_t>(c)] * p_old;
    }
  }
  double p_new = 1.0 / static_cast<double>(b - a + 1);
  for (int s = a; s <= b; ++s) {
    for (int c = s; c < s + delays[u]; ++c) {
      force += dg[static_cast<std::size_t>(c)] * p_new;
    }
  }
  return force;
}

}  // namespace

Schedule force_directed_schedule(const dfg::Graph& g,
                                 std::span<const int> delays, int latency,
                                 std::span<const int> node_group) {
  const std::size_t n = g.node_count();
  if (node_group.size() != n) {
    throw Error("force_directed_schedule: node_group size mismatch");
  }
  Windows w;
  w.est = dfg::asap(g, delays);
  w.lst = dfg::alap(g, delays, latency);
  const auto& topo = g.topological_order();

  int group_count = 0;
  for (int k : node_group) group_count = std::max(group_count, k + 1);
  const std::size_t steps = static_cast<std::size_t>(latency);

  // One distribution graph per group, kept incrementally up to date.
  std::vector<std::vector<double>> dg(
      static_cast<std::size_t>(group_count), std::vector<double>(steps, 0.0));
  for (NodeId u = 0; u < n; ++u) {
    accumulate(dg[static_cast<std::size_t>(node_group[u])], w, delays, u,
               +1.0);
  }

  std::vector<bool> fixed(n, false);
  for (std::size_t placed = 0; placed < n; ++placed) {
    double best_force = std::numeric_limits<double>::infinity();
    NodeId best_node = 0;
    int best_t = -1;

    for (NodeId v = 0; v < n; ++v) {
      if (fixed[v]) continue;
      auto& dgv = dg[static_cast<std::size_t>(node_group[v])];
      for (int t = w.est[v]; t <= w.lst[v]; ++t) {
        // Self force of pinning v to t.
        double force = window_force(dgv, w, delays, v, t, t);
        // Predecessor forces: preds must now finish by t.
        for (NodeId p : g.predecessors(v)) {
          if (fixed[p]) continue;
          int b = std::min(w.lst[p], t - delays[p]);
          force += window_force(dg[static_cast<std::size_t>(node_group[p])],
                                w, delays, p, w.est[p], b);
        }
        // Successor forces: succs cannot start before t + d_v.
        for (NodeId s : g.successors(v)) {
          if (fixed[s]) continue;
          int a = std::max(w.est[s], t + delays[v]);
          force += window_force(dg[static_cast<std::size_t>(node_group[s])],
                                w, delays, s, a, w.lst[s]);
        }
        if (force < best_force - 1e-12) {
          best_force = force;
          best_node = v;
          best_t = t;
        }
      }
    }
    if (best_t < 0) throw Error("force_directed_schedule: internal failure");

    // Commit: remove old distribution, pin, re-propagate, re-add
    // distributions of nodes whose windows changed. Simplest correct
    // approach: rebuild all distribution graphs (n is small in HLS DFGs).
    fixed[best_node] = true;
    w.est[best_node] = w.lst[best_node] = best_t;
    propagate(g, delays, topo, w);
    for (auto& graph_dg : dg) {
      std::fill(graph_dg.begin(), graph_dg.end(), 0.0);
    }
    for (NodeId u = 0; u < n; ++u) {
      accumulate(dg[static_cast<std::size_t>(node_group[u])], w, delays, u,
                 +1.0);
    }
  }

  Schedule s;
  s.start = std::move(w.est);
  s.latency = computed_latency(g, delays, s.start);
  validate_schedule(g, delays, s);
  return s;
}

}  // namespace rchls::sched
