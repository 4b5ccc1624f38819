// Content addresses for api::Session's result caches.
//
// Cache-key contract (pinned by docs/api.md and tests/api_session_test):
// a key is the canonical text encoding of everything a request's result
// depends on -- a format-version header, the request kind, the full
// graph (dfg::to_text) and library (library::to_text) where applicable,
// and every option field rendered deterministically (integers as
// decimal, doubles via format_shortest, variable-length strings and
// embedded artifacts length-framed so adjacent fields can never alias).
// Two requests share a key if and only if the engines are
// guaranteed to produce identical results for them. Node and version
// NAMES are deliberately included even though the engines ignore them:
// over-inclusion can only cost a cache miss, never a wrong hit.
//
// The 64-bit FNV-1a digest of the canonical encoding is the compact
// content address (logs, stats, disk-cache file names); the session's
// memory map itself is keyed on the full canonical string, so hash
// collisions cannot alias entries -- correctness never rests on 64 bits.
#pragma once

#include <cstdint>
#include <string>

#include "api/request.hpp"

namespace rchls::api {

/// A computed content address: the full canonical encoding plus its
/// 64-bit digest (to_hex64(digest) is the display form).
struct CacheKey {
  std::string canonical;
  std::uint64_t digest = 0;
};

/// Canonicalize a request into its content address. Pure and
/// deterministic: equal requests (field-wise, including graph and
/// library contents) always produce equal keys, on every platform.
CacheKey key_of(const FindDesignRequest& req);
CacheKey key_of(const SweepRequest& req);
CacheKey key_of(const GridRequest& req);
CacheKey key_of(const InjectRequest& req);
CacheKey key_of(const RankGatesRequest& req);
CacheKey key_of(const StaRequest& req);
/// Variant dispatch over the typed overloads (the batch/wire entry
/// point).
CacheKey key_of(const Request& req);

}  // namespace rchls::api
