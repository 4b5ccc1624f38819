// The paper's core contribution (Fig. 6): reliability-centric resource
// allocation, binding and scheduling under latency and area bounds.
//
// Outline (line numbers refer to the paper's Figure 6):
//   1. Allocate the most reliable version to every node (l. 3-6) and
//      schedule at the ASAP length.
//   2. While the latency exceeds Ld, pick the slowest node on the critical
//      path and move it to a faster (typically less reliable) version
//      (l. 7-12).
//   3. If the area exceeds Ad, first exploit any remaining latency slack
//      for more resource sharing (l. 15-21), then repeatedly move the
//      biggest-area node -- together with all nodes sharing its instance --
//      to a smaller, not-slower version (l. 23-28).
//   4. Return the design, or "no solution" when the bounds are
//      unsatisfiable (l. 29).
//
// Two documented strengthenings (both optional, see FindDesignOptions):
//   * consolidation: when step 3 is stuck, try bulk version collapses
//     (move ALL nodes of one version to another version) and keep the move
//     that lowers the assembled area most. This realizes the paper's
//     "Update resource sharing" (l. 13) in the stuck case, where the
//     letter-of-Fig.6 algorithm declares failure on instances a trivially
//     feasible uniform design exists for.
//   * polish: a final hill-climbing pass upgrading single operations to
//     more reliable versions while both bounds continue to hold.
//
// Every assembly (schedule + bind) of the Fig. 6 walk and of consolidation
// comes from an AssembleMemo; polish assembles its one-node upgrade
// candidates directly, since a run rarely meets one twice and a memo would
// hold them all. The explore loop's bounds re-walk each other's steps, and
// so do the callers that run find_design many times for one request: a
// grid's cells, a sweep's points, the combined approach's budgets and the
// objectives' searches. Those callers pass one memo to every run; the
// graph-and-library overload makes its own for one call.
#pragma once

#include "dfg/graph.hpp"
#include "hls/design.hpp"
#include "library/resource.hpp"

namespace rchls::hls {

struct FindDesignOptions {
  SchedulerKind scheduler = SchedulerKind::kDensity;
  /// Bulk version-collapse fallback when the Fig. 6 area loop is stuck.
  bool enable_consolidation = true;
  /// Post-pass single-node reliability upgrades (off = paper-faithful).
  bool enable_polish = false;
  /// Additionally run the pipeline at latency bounds Ld-1 .. Ld-k and keep
  /// the most reliable result (any design valid at a tighter bound is
  /// valid at Ld). The greedy trajectory is not monotone in the latency
  /// bound, so a small exploration smooths the reliability-vs-latency
  /// curve (paper Fig. 8(a)). 0 = paper-faithful single run.
  int explore_tighter_latency = 0;
  /// Safety cap on total phase iterations.
  int max_iterations = 100000;
};

/// Returns the most reliable design meeting both bounds that the heuristic
/// finds; throws NoSolutionError when it proves unable to meet them, and
/// Error on an empty graph, an invalid library, a latency bound below 1 or
/// a non-positive area bound.
Design find_design(const dfg::Graph& g, const library::ResourceLibrary& lib,
                   int latency_bound, double area_bound,
                   const FindDesignOptions& options = {});

/// The same on memo.graph() and memo.library(), taking every assembly from
/// (and adding it to) `memo`. The result equals the overload above.
Design find_design(AssembleMemo& memo, int latency_bound, double area_bound,
                   const FindDesignOptions& options = {});

}  // namespace rchls::hls
