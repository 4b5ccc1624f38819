#include "hls/explore.hpp"

#include <sstream>

#include "parallel/parallel_for.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rchls::hls {

namespace {

SweepPoint run_point(AssembleMemo& memo, int latency_bound, double area_bound,
                     const FindDesignOptions& options) {
  SweepPoint p;
  p.latency_bound = latency_bound;
  p.area_bound = area_bound;
  try {
    Design d = find_design(memo, latency_bound, area_bound, options);
    p.reliability = d.reliability;
    p.area = d.area;
    p.latency = d.latency;
  } catch (const NoSolutionError&) {
    // leave optionals empty
  }
  return p;
}

}  // namespace

std::vector<SweepPoint> latency_sweep(const dfg::Graph& g,
                                      const library::ResourceLibrary& lib,
                                      const std::vector<int>& latency_bounds,
                                      double area_bound,
                                      const FindDesignOptions& options) {
  AssembleMemo memo(g, lib);
  return parallel::parallel_map(latency_bounds.size(), [&](std::size_t i) {
    return run_point(memo, latency_bounds[i], area_bound, options);
  });
}

std::vector<SweepPoint> area_sweep(const dfg::Graph& g,
                                   const library::ResourceLibrary& lib,
                                   int latency_bound,
                                   const std::vector<double>& area_bounds,
                                   const FindDesignOptions& options) {
  AssembleMemo memo(g, lib);
  return parallel::parallel_map(area_bounds.size(), [&](std::size_t i) {
    return run_point(memo, latency_bound, area_bounds[i], options);
  });
}

std::vector<ComparisonRow> comparison_grid(
    const dfg::Graph& g, const library::ResourceLibrary& lib,
    const std::vector<int>& latency_bounds,
    const std::vector<double>& area_bounds, const GridOptions& options) {
  std::size_t cells = latency_bounds.size() * area_bounds.size();
  AssembleMemo memo(g, lib);
  return parallel::parallel_map(cells, [&](std::size_t cell) {
    int ld = latency_bounds[cell / area_bounds.size()];
    double ad = area_bounds[cell % area_bounds.size()];
    ComparisonRow row;
    row.latency_bound = ld;
    row.area_bound = ad;
    try {
      row.baseline = nmr_baseline(g, lib, ld, ad, options.baseline)
                         .reliability;
    } catch (const NoSolutionError&) {
    }
    try {
      row.ours = find_design(memo, ld, ad, options.find_design).reliability;
    } catch (const NoSolutionError&) {
    }
    try {
      row.combined =
          combined_design(memo, ld, ad, options.combined).reliability;
    } catch (const NoSolutionError&) {
    }
    if (row.baseline && row.ours) {
      row.improvement_ours = 100.0 * (*row.ours / *row.baseline - 1.0);
    }
    if (row.baseline && row.combined) {
      row.improvement_combined =
          100.0 * (*row.combined / *row.baseline - 1.0);
    }
    return row;
  });
}

std::string to_csv(const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  os << "latency_bound,area_bound,reliability,area,latency\n";
  for (const auto& p : points) {
    os << p.latency_bound << "," << format_fixed(p.area_bound, 2) << ",";
    if (p.reliability) os << format_fixed(*p.reliability, 6);
    os << ",";
    if (p.area) os << format_fixed(*p.area, 2);
    os << ",";
    if (p.latency) os << *p.latency;
    os << "\n";
  }
  return os.str();
}

std::string to_csv(const std::vector<ComparisonRow>& rows) {
  std::ostringstream os;
  os << "latency_bound,area_bound,baseline,ours,combined,"
        "improvement_ours_pct,improvement_combined_pct\n";
  for (const auto& r : rows) {
    os << r.latency_bound << "," << format_fixed(r.area_bound, 2) << ",";
    if (r.baseline) os << format_fixed(*r.baseline, 6);
    os << ",";
    if (r.ours) os << format_fixed(*r.ours, 6);
    os << ",";
    if (r.combined) os << format_fixed(*r.combined, 6);
    os << ",";
    if (r.improvement_ours) os << format_fixed(*r.improvement_ours, 2);
    os << ",";
    if (r.improvement_combined) {
      os << format_fixed(*r.improvement_combined, 2);
    }
    os << "\n";
  }
  return os.str();
}

GridAverages grid_averages(const std::vector<ComparisonRow>& rows) {
  GridAverages avg;
  avg.total_cells = static_cast<int>(rows.size());
  for (const auto& row : rows) {
    if (!(row.baseline && row.ours && row.combined)) continue;
    avg.baseline += *row.baseline;
    avg.ours += *row.ours;
    avg.combined += *row.combined;
    ++avg.solved_cells;
  }
  if (avg.solved_cells > 0) {
    avg.baseline /= avg.solved_cells;
    avg.ours /= avg.solved_cells;
    avg.combined /= avg.solved_cells;
  }
  return avg;
}

}  // namespace rchls::hls
