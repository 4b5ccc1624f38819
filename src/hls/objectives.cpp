#include "hls/objectives.hpp"

#include "dfg/timing.hpp"
#include "util/error.hpp"

namespace rchls::hls {

namespace {

void check_target(double min_reliability, const char* who) {
  if (!(min_reliability > 0.0) || !(min_reliability <= 1.0)) {
    throw Error(std::string(who) + ": min_reliability must lie in (0, 1]");
  }
}

}  // namespace

Design minimize_area(const dfg::Graph& g, const library::ResourceLibrary& lib,
                     int latency_bound, double min_reliability,
                     const ObjectiveOptions& options) {
  check_target(min_reliability, "minimize_area");
  if (!(options.area_step > 0.0)) {
    throw Error("minimize_area: area_step must be > 0");
  }
  // find_design maximizes reliability at a given area bound, and its result
  // is (weakly) improved by loosening the bound, so the first area at which
  // the target is met is the minimal one at this granularity.
  AssembleMemo memo(g, lib);
  for (double ad = options.area_step; ad <= options.max_area + 1e-9;
       ad += options.area_step) {
    try {
      Design d = find_design(memo, latency_bound, ad, options.find_design);
      if (d.reliability >= min_reliability) return d;
    } catch (const NoSolutionError&) {
      // tighter areas are infeasible; keep growing
    }
  }
  throw NoSolutionError("minimize_area: reliability target unreachable "
                        "within max_area");
}

Design minimize_latency(const dfg::Graph& g,
                        const library::ResourceLibrary& lib,
                        double area_bound, double min_reliability,
                        const ObjectiveOptions& options) {
  check_target(min_reliability, "minimize_latency");

  // Lower bound: the ASAP latency with every node on its fastest version.
  std::vector<library::VersionId> fastest(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    fastest[id] = lib.fastest(library::class_of(g.node(id).op));
  }
  int ld = dfg::asap_latency(g, delays_for(g, lib, fastest));

  AssembleMemo memo(g, lib);
  for (; ld <= options.max_latency; ++ld) {
    try {
      Design d = find_design(memo, ld, area_bound, options.find_design);
      if (d.reliability >= min_reliability) return d;
    } catch (const NoSolutionError&) {
    }
  }
  throw NoSolutionError("minimize_latency: reliability target unreachable "
                        "within max_latency");
}

}  // namespace rchls::hls
