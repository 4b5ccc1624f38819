// The serve request/reply protocol, one layer above util/socket's
// framing and one layer above api/wire's envelopes.
//
// A client sends one frame per request; the payload is a standard
// `rchls.wire.v1` REQUEST envelope (api/wire.hpp). The server answers
// every frame with exactly one frame whose payload is either
//
//   * a `rchls.wire.v1` RESULT envelope -- the success path, byte-
//     identical to what a local Session would have produced; or
//
//   * an ERROR envelope, the one envelope kind that exists only on the
//     serve channel (it is never cached and never written to disk):
//
//       { "format_version": "rchls.wire.v1",
//         "kind": "error",
//         "error": { "message": "..." } }
//
// Errors are DATA here, not exceptions: a malformed request, a
// structural engine error (unknown component, missing library version)
// or queue overflow must reach the client as a well-formed reply so the
// connection -- and the daemon -- outlive any single bad request.
// decode_reply() folds both payload shapes into one Reply value;
// serve::Client::call() re-raises Reply::error as rchls::Error for
// callers that prefer exceptions.
//
// Requests on one connection are answered in request order (the worker
// pool may compute them out of order; the per-connection reply lock in
// the server keeps the frames themselves ordered). Full lifecycle and
// backpressure contract: docs/serving.md.
//
// Besides engine requests, the channel carries one ADMIN exchange: a
// `kind:"stats"` request envelope (no other fields) that the server
// answers with a `kind:"stats"` reply carrying its lifetime counters.
// Stats are serve-channel-only, like errors: never cached, never on
// disk. `rchls fleet status` fans this request out to every endpoint.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/result.hpp"

namespace rchls::serve {

/// Canonical error envelope (trailing newline, like every wire
/// encoding). `message` is escaped as a JSON string; any text is safe.
std::string encode_error(const std::string& message);

/// One decoded server reply: exactly one of `result` / `error` is set.
struct Reply {
  std::optional<api::Result> result;
  std::string error;  ///< non-empty iff the server answered an error

  bool ok() const { return result.has_value(); }
};

/// Parses a reply frame: an error envelope becomes Reply::error, any
/// other payload goes through wire::decode_result. Throws rchls::Error
/// only when the payload is neither (a malformed frame from something
/// that is not an rchls server).
Reply decode_reply(const std::string& payload);

/// One daemon's lifetime counters as carried by the stats envelope --
/// the serve::ServeStats and api::SessionStats counters flattened
/// into one wire-stable struct.
struct DaemonStats {
  std::uint64_t connections = 0;  ///< admitted connections
  std::uint64_t active_connections = 0;
  std::uint64_t refused_connections = 0;  ///< over --max-connections
  std::uint64_t idle_reaped = 0;          ///< reaped by --idle-timeout-s
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t overflows = 0;
  std::uint64_t hits = 0;  ///< memory-cache hits
  std::uint64_t disk_hits = 0;
  std::uint64_t executions = 0;
  std::uint64_t entries = 0;  ///< memory-cache population
};

/// The `kind:"stats"` request envelope.
std::string encode_stats_request();

/// True iff `payload` is a stats request (kind "stats" with no
/// counters member) -- the server's pre-decode test (a stats frame
/// never reaches wire::decode_request). False for a stats REPLY and
/// for anything unparseable.
bool is_stats_request(const std::string& payload);

/// The `kind:"stats"` reply envelope.
std::string encode_stats(const DaemonStats& stats);

/// Parses a stats reply; nullopt when `payload` is not a stats reply
/// envelope -- including a bare stats request and unparseable input --
/// so callers can fall through to decode_reply. Unknown
/// counters decode as 0, extra counters are ignored -- both directions
/// of version skew stay readable.
std::optional<DaemonStats> decode_stats(const std::string& payload);

}  // namespace rchls::serve
