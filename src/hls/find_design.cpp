#include "hls/find_design.hpp"

#include <algorithm>
#include <optional>

#include "dfg/timing.hpp"
#include "util/error.hpp"

namespace rchls::hls {

namespace {

constexpr double kAreaEps = 1e-9;

using library::ResourceLibrary;
using library::VersionId;
using DesignPtr = std::shared_ptr<const Design>;

/// Phase 2 (Fig. 6 l. 7-12): shrink the minimum latency below the bound by
/// moving critical-path nodes to faster versions. The paper selects "the
/// node on the critical path with the highest delay"; among the tied
/// candidates we additionally look one step ahead and take the conversion
/// that reduces the overall ASAP latency most -- a node shared by all
/// critical paths (e.g. an accumulation chain) beats a node with parallel
/// siblings, which the delay criterion alone cannot see. The replacement
/// is the most reliable faster version (the reliability-centric pick).
/// Throws NoSolutionError when the critical path has no faster version
/// left.
void reduce_latency(const dfg::Graph& g, const ResourceLibrary& lib,
                    std::vector<VersionId>& versions, int latency_bound,
                    int max_iterations) {
  auto delays = delays_for(g, lib, versions);
  int iterations = 0;
  while (dfg::asap_latency(g, delays) > latency_bound) {
    if (++iterations > max_iterations) {
      throw Error("find_design: latency phase iteration limit");
    }
    auto path = dfg::critical_path(g, delays);

    std::optional<dfg::NodeId> victim;
    VersionId victim_replacement = 0;
    int best_latency = 0;
    double best_reliability = 0.0;
    for (dfg::NodeId id : path) {
      auto faster = lib.faster_versions(versions[id]);
      if (faster.empty()) continue;
      VersionId replacement = faster[0];
      int saved = delays[id];
      delays[id] = lib.version(replacement).delay;
      int latency = dfg::asap_latency(g, delays);
      delays[id] = saved;
      double reliability = lib.version(replacement).reliability;
      bool better = !victim || latency < best_latency ||
                    (latency == best_latency &&
                     reliability > best_reliability);
      if (better) {
        victim = id;
        victim_replacement = replacement;
        best_latency = latency;
        best_reliability = reliability;
      }
    }
    if (!victim) {
      throw NoSolutionError(
          "find_design: cannot meet latency bound " +
          std::to_string(latency_bound) + " (minimum achievable is " +
          std::to_string(dfg::asap_latency(g, delays)) +
          " and no faster versions remain on the critical path)");
    }
    versions[*victim] = victim_replacement;
    delays[*victim] = lib.version(victim_replacement).delay;
  }
}

/// One Fig. 6 l. 23-28 step: move the biggest-area node (and all sharers
/// of its instance) to the most reliable strictly smaller, not-slower
/// version. Returns false when no node has such a version.
bool shrink_step(const dfg::Graph& g, const ResourceLibrary& lib,
                 std::vector<VersionId>& versions, const Design& current) {
  // Nodes ordered by the area of their version, biggest first.
  std::vector<dfg::NodeId> order(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(),
            [&](dfg::NodeId a, dfg::NodeId b) {
              double aa = lib.version(versions[a]).area;
              double ab = lib.version(versions[b]).area;
              if (aa != ab) return aa > ab;
              return a < b;
            });

  for (dfg::NodeId victim : order) {
    auto smaller = lib.smaller_versions(versions[victim]);
    if (smaller.empty()) continue;
    VersionId replacement = smaller[0];
    // "...and to all other nodes that are sharing the same resource."
    const auto& sharers =
        current.binding.instances[current.binding.instance_of[victim]].ops;
    for (dfg::NodeId s : sharers) versions[s] = replacement;
    versions[victim] = replacement;
    return true;
  }
  return false;
}

/// Consolidation fallback: bulk-collapse one version into another when the
/// per-node shrink loop is stuck. Tries every (used version -> other
/// version of the class) move and assembles each candidate. Preference
/// order: any candidate that already meets the area bound (highest
/// reliability among those), otherwise the smallest-area candidate that
/// still improves on the current area (ties: higher reliability). Returns
/// true if a move was applied.
bool consolidate_step(AssembleMemo& memo, std::vector<VersionId>& versions,
                      int target_latency, double area_bound,
                      SchedulerKind scheduler, DesignPtr& current) {
  const dfg::Graph& g = memo.graph();
  const ResourceLibrary& lib = memo.library();
  std::vector<bool> used(lib.size(), false);
  for (VersionId v : versions) used[v] = true;

  DesignPtr best;
  std::vector<VersionId> best_versions;
  auto consider = [&](DesignPtr d, std::vector<VersionId> candidate) {
    bool d_ok = d->area <= area_bound + kAreaEps;
    if (!d_ok && d->area >= current->area - kAreaEps) return;
    bool better;
    if (!best) {
      better = true;
    } else {
      bool best_ok = best->area <= area_bound + kAreaEps;
      if (d_ok != best_ok) {
        better = d_ok;
      } else if (d_ok) {
        better = d->reliability > best->reliability;
      } else {
        better = d->area < best->area - kAreaEps ||
                 (d->area < best->area + kAreaEps &&
                  d->reliability > best->reliability);
      }
    }
    if (better) {
      best = std::move(d);
      best_versions = std::move(candidate);
    }
  };

  for (VersionId from = 0; from < lib.size(); ++from) {
    if (!used[from]) continue;
    for (VersionId to = 0; to < lib.size(); ++to) {
      if (to == from || lib.version(to).cls != lib.version(from).cls) {
        continue;
      }
      std::vector<VersionId> candidate = versions;
      for (auto& v : candidate) {
        if (v == from) v = to;
      }
      auto delays = delays_for(g, lib, candidate);
      if (dfg::asap_latency(g, delays) > target_latency) continue;
      DesignPtr d = memo.assemble(candidate, target_latency, scheduler);
      consider(std::move(d), std::move(candidate));
    }
  }
  if (!best) return false;
  versions = std::move(best_versions);
  current = std::move(best);
  return true;
}

/// Polish: greedy single-node upgrades to more reliable versions while
/// both bounds keep holding. Candidates are assembled at the latency bound
/// (maximum sharing) so an upgrade is never rejected for transient
/// scheduling reasons. They bypass the memo: each differs from the current
/// assignment in one node and every accepted upgrade moves that
/// assignment, so a run rarely meets a candidate twice, while a memo that
/// kept them would hold up to max_iterations Designs.
void polish(const dfg::Graph& g, const ResourceLibrary& lib,
            std::vector<VersionId>& versions, int latency_bound,
            double area_bound, SchedulerKind scheduler, DesignPtr& current,
            int max_iterations) {
  int iterations = 0;
  bool improved = true;
  while (improved) {
    improved = false;
    std::optional<Design> best;
    for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
      double cur_r = lib.version(versions[id]).reliability;
      for (VersionId v = 0; v < lib.size(); ++v) {
        if (lib.version(v).cls != lib.version(versions[id]).cls) continue;
        if (lib.version(v).reliability <= cur_r) continue;
        if (++iterations > max_iterations) return;
        std::vector<VersionId> candidate = versions;
        candidate[id] = v;
        auto delays = delays_for(g, lib, candidate);
        if (dfg::asap_latency(g, delays) > latency_bound) continue;
        Design d =
            assemble(g, lib, std::move(candidate), latency_bound, scheduler);
        if (d.area > area_bound + kAreaEps) continue;
        double bar = best ? best->reliability : current->reliability;
        if (d.reliability > bar) best = std::move(d);
      }
    }
    if (best) {
      versions = best->version_of;
      current = std::make_shared<const Design>(std::move(*best));
      improved = true;
    }
  }
}

Design find_design_once(AssembleMemo& memo, int latency_bound,
                        double area_bound, const FindDesignOptions& options) {
  const dfg::Graph& g = memo.graph();
  const ResourceLibrary& lib = memo.library();

  // Fig. 6 l. 3: the most reliable version for every node.
  std::vector<VersionId> versions(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    versions[id] = lib.most_reliable(library::class_of(g.node(id).op));
  }

  // Fig. 6 l. 7-12: meet the latency bound.
  reduce_latency(g, lib, versions, latency_bound, options.max_iterations);

  // Fig. 6 l. 4-5 / 11: schedule at the ASAP length.
  int target_latency =
      dfg::asap_latency(g, delays_for(g, lib, versions));
  DesignPtr d = memo.assemble(versions, target_latency, options.scheduler);

  int iterations = 0;
  while (d->area > area_bound + kAreaEps) {
    if (++iterations > options.max_iterations) {
      throw Error("find_design: area phase iteration limit");
    }

    // Fig. 6 l. 15-21: exploit latency slack for sharing.
    if (target_latency < latency_bound) {
      ++target_latency;
      d = memo.assemble(versions, target_latency, options.scheduler);
      continue;
    }

    // Fig. 6 l. 23-28: demote the biggest-area node and its sharers.
    if (shrink_step(g, lib, versions, *d)) {
      d = memo.assemble(versions, target_latency, options.scheduler);
      continue;
    }

    // Stuck: optional bulk consolidation.
    if (options.enable_consolidation &&
        consolidate_step(memo, versions, target_latency, area_bound,
                         options.scheduler, d)) {
      continue;
    }

    throw NoSolutionError(
        "find_design: cannot meet area bound " + std::to_string(area_bound) +
        " (best achievable with the current assignment is " +
        std::to_string(d->area) + ")");
  }

  if (options.enable_polish) {
    polish(g, lib, versions, latency_bound, area_bound, options.scheduler, d,
           options.max_iterations);
  }

  validate_design(*d, g, lib);
  return *d;
}

}  // namespace

Design find_design(AssembleMemo& memo, int latency_bound, double area_bound,
                   const FindDesignOptions& options) {
  if (memo.graph().node_count() == 0) throw Error("find_design: empty graph");
  if (latency_bound < 1) throw Error("find_design: latency bound must be >= 1");
  if (!(area_bound > 0.0)) throw Error("find_design: area bound must be > 0");
  memo.library().validate();

  std::optional<Design> best;
  std::string first_failure;
  for (int k = 0; k <= options.explore_tighter_latency; ++k) {
    int bound = latency_bound - k;
    if (bound < 1) break;
    try {
      Design d = find_design_once(memo, bound, area_bound, options);
      if (!best || d.reliability > best->reliability ||
          (d.reliability == best->reliability && d.area < best->area)) {
        best = std::move(d);
      }
    } catch (const NoSolutionError& e) {
      // A run at a tighter bound can still succeed (the greedy trajectory
      // is not monotone in the bound), so keep trying.
      if (first_failure.empty()) first_failure = e.what();
    }
  }
  if (!best) {
    throw NoSolutionError(first_failure.empty()
                              ? "find_design: no solution within bounds"
                              : first_failure);
  }
  return *best;
}

Design find_design(const dfg::Graph& g, const ResourceLibrary& lib,
                   int latency_bound, double area_bound,
                   const FindDesignOptions& options) {
  AssembleMemo memo(g, lib);
  return find_design(memo, latency_bound, area_bound, options);
}

}  // namespace rchls::hls
