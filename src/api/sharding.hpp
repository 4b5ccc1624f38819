// Balanced request slicing -- the slicing policy behind
// remote::RemoteExecutor (remote/executor.hpp).
//
// Sweep and Grid requests are embarrassingly cell-parallel, so the
// fleet executor splits them into child requests, dispatches each to a
// daemon, and merges the child results back. Byte-identity with
// LocalExecutor rests on ONE invariant, kept here apart from any
// transport:
//
//  * slices are balanced CONTIGUOUS runs of the cell order (grid slices
//    never cross a row boundary), produced purely from (request, k);
//  * merging concatenates slice results in slice order, so the merged
//    cell order is exactly the unsharded order; grid averages are
//    recomputed from the merged rows with hls::grid_averages, the same
//    pure function the local path uses.
//
// Because every cell is computed independently of its neighbors, the
// merged result -- and every report rendered from it -- is
// byte-identical to LocalExecutor's at any slice count, over any
// transport. Tests assert this for every slice count 1..cells+1 at jobs
// 1/2/8 (tests/api_executor_test.cpp) and for endpoints 1/2/4 against
// jobs 1/8 (tests/remote_test.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "api/request.hpp"
#include "api/result.hpp"

namespace rchls::api {

/// Splits a sweep into min(k, points) child SweepRequests, each a
/// balanced contiguous slice of the swept axis (the fixed axis keeps
/// its front element). k < 1 is clamped to 1. Throws rchls::Error when
/// a bound axis is empty.
std::vector<Request> shard_sweep(const SweepRequest& req, std::size_t k);

/// Splits a grid into at most k child GridRequests: balanced contiguous
/// runs of the row-major (latency-outer) cell order that never cross a
/// row boundary -- each child is a one-latency GridRequest over a slice
/// of the areas.
std::vector<Request> shard_grid(const GridRequest& req, std::size_t k);

/// Concatenates slice results in slice order. `parts` must be the
/// results of shard_sweep's slices, in the same order.
SweepResult merge_sweep(const SweepRequest& req, std::vector<Result>& parts);

/// Concatenates slice rows in slice order and recomputes the
/// common-cell averages over the WHOLE merged grid.
GridResult merge_grid(const GridRequest& req, std::vector<Result>& parts);

}  // namespace rchls::api
