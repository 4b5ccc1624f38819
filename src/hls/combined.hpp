// The paper's combined approach (Section 7, Table 2 column 6): run the
// reliability-centric find_design first, then spend any remaining area on
// modular redundancy, duplicating instances with the same versions the
// reliability-centric pass selected.
//
// The budget loop's find_design runs share one AssembleMemo: the walk at a
// smaller budget repeats the steps of the walk at a larger one, so those
// steps are lookups. A grid passes its request's memo, which its "ours"
// column fills first.
#pragma once

#include "dfg/graph.hpp"
#include "hls/find_design.hpp"
#include "hls/redundancy.hpp"

namespace rchls::hls {

struct CombinedOptions {
  FindDesignOptions find_design;
  RedundancyOptions redundancy;
  /// Granularity of the budget split search (see below). Non-positive
  /// disables the search (single pass at the full area bound).
  double budget_step = 1.0;
  /// Maximum number of reduced budgets to try.
  int max_budget_splits = 16;
};

/// find_design + apply_redundancy under the same bounds.
///
/// The area budget is split between version quality (the find_design pass)
/// and replication (the redundancy pass): the find_design pass is run at
/// several reduced area budgets Ad, Ad - step, Ad - 2*step, ...; each
/// result is then topped up with redundancy against the full bound, and
/// the most reliable final design wins. A single greedy pass at the full
/// bound (the literal reading of the paper) tends to spend the whole
/// budget on versions and leave nothing for duplication.
/// Throws NoSolutionError when find_design fails at every budget, and
/// Error on a latency bound below 1, a non-positive area bound or any
/// argument find_design rejects.
Design combined_design(const dfg::Graph& g,
                       const library::ResourceLibrary& lib,
                       int latency_bound, double area_bound,
                       const CombinedOptions& options = {});

/// The same on memo.graph() and memo.library(), with every find_design run
/// taking its assemblies from `memo`.
Design combined_design(AssembleMemo& memo, int latency_bound,
                       double area_bound, const CombinedOptions& options = {});

}  // namespace rchls::hls
