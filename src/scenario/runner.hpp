// Executes a parsed Scenario and collects structured results.
//
// The runner is a thin client of the rchls::api facade: run() walks the
// scenario's actions in file order, maps each one onto a typed request
// (api/request.hpp) carrying the scenario's graph and library, and
// executes it through an api::Session. The session memoizes results by
// content address -- in memory and, when configured with a cache_dir,
// persistently on disk -- so running several scenarios (or the same
// scenario after an edit, or in a later process) through a Session
// recomputes only the actions whose (graph, library, options) content
// actually changed; the session's executor decides whether misses run
// in-process or sharded across worker processes (api/executor.hpp).
// The single-argument run() overload uses a private default session
// per call (correct, but cache-cold and local-only).
//
// The engines behind the session (hls::find_design / nmr_baseline /
// combined_design, hls::latency_sweep / area_sweep / comparison_grid,
// ser::inject_campaign / inject_gate / rank_gate_sensitivities) fan out
// through parallel::parallel_for over the one engine pool; the worker
// count is the processwide parallel::Config (the CLI's --jobs flag). Because every
// engine partitions and merges deterministically, a RunReport (and its
// JSON/CSV rendering, see report.hpp) is bit-identical at every worker
// count, and cached results are byte-identical to cold recomputations.
//
// Error behavior: an infeasible find_design point is NOT an error -- it
// becomes a result with solved == false (sweep/grid points likewise stay
// empty), mirroring hls::SweepPoint. Structural problems -- a library
// missing a resource class the graph needs, an out-of-range gate id --
// throw rchls::Error from the underlying engine, annotated with the
// action's label and source line.
//
// Units are the codebase's standard ones throughout: cycles for latency
// and delay, normalized area units (ripple-carry adder == 1) for area,
// mission reliability in (0, 1], wall-clock-free (no timing fields, so
// reports are reproducible byte-for-byte).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "api/session.hpp"
#include "scenario/scenario.hpp"

namespace rchls::scenario {

/// The per-action result payloads are the api facade's result types
/// (api/result.hpp); the aliases keep existing scenario-level code and
/// the report writers source-compatible.
using FindDesignResult = api::FindDesignResult;
using SweepResult = api::SweepResult;
using GridResult = api::GridResult;
using InjectResult = api::InjectResult;
using RankGatesResult = api::RankGatesResult;
using StaResult = api::StaResult;

/// One executed action: the label/line it came from and its payload.
struct ActionResult {
  std::string label;
  int line = 0;
  api::Result data;
};

/// A completed run: scenario identity, the graph and library the actions
/// ran against (kept so report writers can render schedules and version
/// names), and one ActionResult per action in file order.
struct RunReport {
  std::string scenario_name;
  std::optional<dfg::Graph> graph;
  library::ResourceLibrary library;
  std::vector<ActionResult> actions;
};

/// Runs every action through `session`, sharing its result cache (and
/// its stats -- `rchls run --verify-cache` and the cache tests observe
/// recomputation through them). Deterministic for a given scenario at
/// every parallel::Config worker count.
RunReport run(const Scenario& scn, api::Session& session);

/// Convenience overload executing against a fresh private session (no
/// caching across calls).
RunReport run(const Scenario& scn);

}  // namespace rchls::scenario
