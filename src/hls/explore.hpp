// Design-space exploration sweeps: the machinery behind the paper's
// Figure 8 (reliability vs latency / area curves), Table 2 (bound grids
// comparing [3], ours, and the combined approach) and Figure 9 (grid
// averages).
//
// Grid points are independent, so every sweep evaluates them as one
// parallel_for index per point on the engine pool (worker count from
// parallel::Config / the CLI's --jobs). Results are collected by index,
// making sweep output bit-identical at any worker count.
#pragma once

#include <optional>
#include <vector>

#include "dfg/graph.hpp"
#include "hls/baseline.hpp"
#include "hls/combined.hpp"
#include "hls/find_design.hpp"

namespace rchls::hls {

/// One point of a single-engine sweep; `reliability` is empty when the
/// engine found no solution at these bounds.
struct SweepPoint {
  int latency_bound = 0;
  double area_bound = 0.0;
  std::optional<double> reliability;
  std::optional<double> area;     ///< achieved
  std::optional<int> latency;     ///< achieved
};

/// find_design at fixed area bound over several latency bounds (Fig 8a).
std::vector<SweepPoint> latency_sweep(const dfg::Graph& g,
                                      const library::ResourceLibrary& lib,
                                      const std::vector<int>& latency_bounds,
                                      double area_bound,
                                      const FindDesignOptions& options = {});

/// find_design at fixed latency bound over several area bounds (Fig 8b).
std::vector<SweepPoint> area_sweep(const dfg::Graph& g,
                                   const library::ResourceLibrary& lib,
                                   int latency_bound,
                                   const std::vector<double>& area_bounds,
                                   const FindDesignOptions& options = {});

/// One Table 2 row: all three engines at one (Ld, Ad) point.
struct ComparisonRow {
  int latency_bound = 0;
  double area_bound = 0.0;
  std::optional<double> baseline;   ///< Ref [3]
  std::optional<double> ours;       ///< reliability-centric
  std::optional<double> combined;   ///< ours + redundancy
  /// 100 * (ours/baseline - 1); empty unless both solved.
  std::optional<double> improvement_ours;
  std::optional<double> improvement_combined;
};

struct GridOptions {
  BaselineOptions baseline;
  CombinedOptions combined;
  FindDesignOptions find_design;
};

/// Full cross product of bounds (Table 2).
std::vector<ComparisonRow> comparison_grid(
    const dfg::Graph& g, const library::ResourceLibrary& lib,
    const std::vector<int>& latency_bounds,
    const std::vector<double>& area_bounds, const GridOptions& options = {});

/// Average reliability per engine over the *common* solved cells -- rows
/// where all three engines found a design (Fig 9 bars). Averaging each
/// engine over its own solved subset would compare apples to oranges: an
/// engine that only solves the easy cells would look better than one that
/// also solves the hard ones.
struct GridAverages {
  double baseline = 0.0;
  double ours = 0.0;
  double combined = 0.0;
  /// Rows where every engine solved (the averaging population).
  int solved_cells = 0;
  /// All rows in the grid.
  int total_cells = 0;
};
GridAverages grid_averages(const std::vector<ComparisonRow>& rows);

/// CSV renderings (header row included; unsolved points are empty cells).
/// Ready for the plotting tool of your choice.
std::string to_csv(const std::vector<SweepPoint>& points);
std::string to_csv(const std::vector<ComparisonRow>& rows);

}  // namespace rchls::hls
