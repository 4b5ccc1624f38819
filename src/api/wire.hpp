// The api wire protocol: deterministic JSON encode/decode for every
// request and result kind, making them first-class objects on the wire.
//
// Everything the facade can execute -- and everything it can answer --
// serializes to one self-describing JSON envelope:
//
//   { "format_version": "rchls.wire.v1",
//     "kind": "sweep",
//     "request": { ... } }      // or "result": { ... }
//
// Three consumers share this format (full schema: docs/wire-protocol.md):
//
//  * the serve daemon (serve/server.hpp) and its clients -- `rchls
//    request` and remote::RemoteExecutor's fleet -- exchange requests
//    and results as framed envelopes;
//  * api::DiskCache persists results under `.rchls-cache/<digest>.json`
//    so separate CLI invocations share one warm cache;
//  * embedders that want to queue or route engine work out of process.
//
// Determinism contract: encoding is canonical -- fixed key order, 2-space
// indent, shortest-round-trip doubles (util/json), graphs and libraries
// embedded as their own text formats (dfg/io, library/io), 64-bit seeds
// as decimal strings. encode(decode(encode(x))) == encode(x) for every
// request and result (a randomized property test pins this), so a wire
// payload's bytes are themselves content-addressable.
//
// The wire format_version is its own version (separate from the cache-key
// header in api/cache.cpp and the report writer's format_version): bump it
// whenever a field is added, removed or re-interpreted. Decoders reject
// any other version outright -- cross-version negotiation is a non-goal;
// a stale cache entry or worker simply re-executes.
//
// Errors: decode_* throws rchls::Error ("wire: ...") on any malformed,
// incomplete or version-mismatched document. Encoding never throws for
// values produced by the engines.
#pragma once

#include <string>

#include "api/request.hpp"
#include "api/result.hpp"

namespace rchls::api::wire {

/// The wire envelope version accepted by the decoders below.
inline constexpr const char* kFormatVersion = "rchls.wire.v1";

/// The "kind" tag of a request/result pair ("find_design", "sweep",
/// "grid", "inject", "rank_gates") -- the same spelling the cache-key
/// header and scenario reports use.
const char* kind_of(const Request& req);
const char* kind_of(const Result& res);

/// Canonical JSON envelope (ends with a trailing newline, so wire files
/// are valid "text files" for diff tools).
std::string encode(const Request& req);
std::string encode(const Result& res);

/// Strict inverses of encode(). Throw rchls::Error on malformed JSON, a
/// missing/unknown field, a wrong format_version or an unknown kind.
Request decode_request(const std::string& text);
Result decode_result(const std::string& text);

}  // namespace rchls::api::wire
