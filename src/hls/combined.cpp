#include "hls/combined.hpp"

#include <optional>

#include "util/error.hpp"

namespace rchls::hls {

Design combined_design(AssembleMemo& memo, int latency_bound,
                       double area_bound, const CombinedOptions& options) {
  if (latency_bound < 1) {
    throw Error("combined_design: latency bound must be >= 1");
  }
  if (!(area_bound > 0.0)) {
    throw Error("combined_design: area bound must be > 0");
  }
  const dfg::Graph& g = memo.graph();
  const library::ResourceLibrary& lib = memo.library();
  std::optional<Design> best;
  int splits = options.budget_step > 0.0 ? options.max_budget_splits : 0;
  for (int k = 0; k <= splits; ++k) {
    double budget = area_bound - k * options.budget_step;
    if (!(budget > 0.0)) break;
    Design d;
    try {
      d = find_design(memo, latency_bound, budget, options.find_design);
    } catch (const NoSolutionError&) {
      break;  // tighter budgets only get harder
    }
    apply_redundancy(d, g, lib, area_bound, options.redundancy);
    if (!best || d.reliability > best->reliability ||
        (d.reliability == best->reliability && d.area < best->area)) {
      best = std::move(d);
    }
  }
  if (!best) {
    throw NoSolutionError("combined_design: no solution at any budget "
                          "split");
  }
  validate_design(*best, g, lib);
  return *best;
}

Design combined_design(const dfg::Graph& g,
                       const library::ResourceLibrary& lib,
                       int latency_bound, double area_bound,
                       const CombinedOptions& options) {
  AssembleMemo memo(g, lib);
  return combined_design(memo, latency_bound, area_bound, options);
}

}  // namespace rchls::hls
