#include "dfg/timing.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rchls::dfg {

namespace {

void check_delays(const Graph& g, std::span<const int> delays,
                  const char* who) {
  if (delays.size() != g.node_count()) {
    throw Error(std::string(who) + ": delay vector size mismatch");
  }
  for (int d : delays) {
    if (d < 1) throw Error(std::string(who) + ": delays must be >= 1");
  }
}

}  // namespace

std::vector<int> asap(const Graph& g, std::span<const int> delays) {
  check_delays(g, delays, "asap");
  std::vector<int> start(g.node_count(), 0);
  for (NodeId id : g.topological_order()) {
    int s = 0;
    for (NodeId p : g.predecessors(id)) {
      s = std::max(s, start[p] + delays[p]);
    }
    start[id] = s;
  }
  return start;
}

int asap_latency(const Graph& g, std::span<const int> delays) {
  auto start = asap(g, delays);
  int latency = 0;
  for (NodeId id = 0; id < g.node_count(); ++id) {
    latency = std::max(latency, start[id] + delays[id]);
  }
  return latency;
}

std::vector<int> alap(const Graph& g, std::span<const int> delays,
                      int latency) {
  check_delays(g, delays, "alap");
  int min_latency = asap_latency(g, delays);
  if (latency < min_latency) {
    throw NoSolutionError("alap: latency " + std::to_string(latency) +
                          " below minimum " + std::to_string(min_latency));
  }
  std::vector<int> start(g.node_count(), 0);
  const auto& order = g.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId id = *it;
    int s = latency - delays[id];
    for (NodeId succ : g.successors(id)) {
      s = std::min(s, start[succ] - delays[id]);
    }
    start[id] = s;
  }
  return start;
}

std::vector<int> mobility(const Graph& g, std::span<const int> delays,
                          int latency) {
  auto early = asap(g, delays);
  auto late = alap(g, delays, latency);
  std::vector<int> m(g.node_count());
  for (NodeId id = 0; id < g.node_count(); ++id) {
    m[id] = late[id] - early[id];
  }
  return m;
}

std::vector<NodeId> critical_path(const Graph& g,
                                  std::span<const int> delays) {
  check_delays(g, delays, "critical_path");
  if (g.node_count() == 0) return {};

  // dist[id]: weight of the heaviest path ending at id (inclusive).
  std::vector<long long> dist(g.node_count(), 0);
  std::vector<NodeId> parent(g.node_count(), 0);
  std::vector<bool> has_parent(g.node_count(), false);
  for (NodeId id : g.topological_order()) {
    long long best = 0;
    NodeId best_p = 0;
    bool found = false;
    for (NodeId p : g.predecessors(id)) {
      if (!found || dist[p] > best || (dist[p] == best && p < best_p)) {
        best = dist[p];
        best_p = p;
        found = true;
      }
    }
    dist[id] = best + delays[id];
    parent[id] = best_p;
    has_parent[id] = found;
  }

  NodeId end = 0;
  for (NodeId id = 1; id < g.node_count(); ++id) {
    if (dist[id] > dist[end]) end = id;
  }
  std::vector<NodeId> path{end};
  while (has_parent[path.back()]) path.push_back(parent[path.back()]);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> critical_nodes(const Graph& g,
                                   std::span<const int> delays) {
  int latency = asap_latency(g, delays);
  auto m = mobility(g, delays, latency);
  std::vector<NodeId> out;
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (m[id] == 0) out.push_back(id);
  }
  return out;
}

}  // namespace rchls::dfg
