#include "api/cache.hpp"

#include <sstream>
#include <variant>

#include "dfg/io.hpp"
#include "library/io.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace rchls::api {

namespace {

// Bump whenever the encoding below or any engine's result semantics
// change: a different version string changes every key, which safely
// invalidates everything (in-process today, persisted stores later).
constexpr const char* kFormatVersion = "rchls.api.v1";

void put_header(std::ostream& os, const char* kind) {
  os << kFormatVersion << "\nkind " << kind << "\n";
}

// Variable-length strings are length-framed (key N:value). Without the
// frame, adjacent fields could alias -- e.g. baseline pair ("a b", "c")
// and ("a", "b c") would both encode as "a b c" -- handing one request
// the other's cached result. With it, no two distinct field tuples
// share an encoding, which is the "equal keys iff identical results"
// half of the cache contract.
void put_str(std::ostream& os, const char* key, const std::string& v) {
  os << key << " " << v.size() << ":" << v << "\n";
}

void put_context(std::ostream& os, const dfg::Graph& g,
                 const library::ResourceLibrary& lib) {
  std::string gt = dfg::to_text(g);
  std::string lt = library::to_text(lib);
  // Block lengths frame the embedded artifacts just like put_str frames
  // scalar strings.
  os << "[graph " << gt.size() << "]\n" << gt << "[library " << lt.size()
     << "]\n" << lt;
}

void put_engine_options(std::ostream& os,
                        const hls::FindDesignOptions& options) {
  os << "scheduler "
     << (options.scheduler == hls::SchedulerKind::kDensity ? "density"
                                                           : "fds")
     << "\nconsolidation " << (options.enable_consolidation ? 1 : 0)
     << "\npolish " << (options.enable_polish ? 1 : 0) << "\nexplore "
     << options.explore_tighter_latency << "\nmax_iterations "
     << options.max_iterations << "\n";
}

void put_baseline_versions(
    std::ostream& os,
    const std::optional<std::pair<std::string, std::string>>& versions) {
  if (versions) {
    put_str(os, "baseline_adder", versions->first);
    put_str(os, "baseline_mult", versions->second);
  }
}

template <typename T>
void put_list(std::ostream& os, const char* key, const std::vector<T>& xs) {
  os << key;
  for (const T& x : xs) {
    os << " ";
    if constexpr (std::is_same_v<T, double>) {
      os << format_shortest(x);
    } else {
      os << x;
    }
  }
  os << "\n";
}

CacheKey seal(std::ostringstream& os) {
  CacheKey key;
  key.canonical = os.str();
  key.digest = fnv1a64(key.canonical);
  return key;
}

}  // namespace

CacheKey key_of(const FindDesignRequest& req) {
  std::ostringstream os;
  put_header(os, "find_design");
  put_context(os, req.graph, req.library);
  os << "latency_bound " << req.latency_bound << "\narea_bound "
     << format_shortest(req.area_bound) << "\n";
  put_str(os, "engine", req.engine);
  put_engine_options(os, req.options);
  put_baseline_versions(os, req.baseline_versions);
  return seal(os);
}

CacheKey key_of(const SweepRequest& req) {
  std::ostringstream os;
  put_header(os, "sweep");
  put_context(os, req.graph, req.library);
  os << "axis " << (req.axis == SweepAxis::kLatency ? "latency" : "area")
     << "\n";
  put_list(os, "latency_bounds", req.latency_bounds);
  put_list(os, "area_bounds", req.area_bounds);
  put_engine_options(os, req.options);
  return seal(os);
}

CacheKey key_of(const GridRequest& req) {
  std::ostringstream os;
  put_header(os, "grid");
  put_context(os, req.graph, req.library);
  put_list(os, "latency_bounds", req.latency_bounds);
  put_list(os, "area_bounds", req.area_bounds);
  put_engine_options(os, req.options);
  put_baseline_versions(os, req.baseline_versions);
  return seal(os);
}

CacheKey key_of(const InjectRequest& req) {
  std::ostringstream os;
  put_header(os, "inject");
  put_str(os, "component", req.component);
  os << "width " << req.width << "\ntrials " << req.trials << "\nseed "
     << req.seed << "\ngate ";
  if (req.gate) {
    os << *req.gate;
  } else {
    os << "all";
  }
  os << "\n";
  return seal(os);
}

CacheKey key_of(const RankGatesRequest& req) {
  std::ostringstream os;
  put_header(os, "rank_gates");
  put_str(os, "component", req.component);
  if (req.graph) {
    // Graph-shaped targets append their context; component-shaped keys
    // stay byte-identical to the pre-sta encoding.
    put_context(os, *req.graph, req.library);
    put_str(os, "versions", req.versions);
  }
  os << "width " << req.width << "\ntrials " << req.trials << "\nseed "
     << req.seed << "\ntop " << req.top << "\n";
  return seal(os);
}

CacheKey key_of(const StaRequest& req) {
  std::ostringstream os;
  put_header(os, "sta");
  put_str(os, "component", req.component);
  if (req.graph) {
    put_context(os, *req.graph, req.library);
    put_str(os, "versions", req.versions);
  }
  os << "width " << req.width << "\nclock " << format_shortest(req.clock)
     << "\ntop_paths " << req.top_paths << "\ntop " << req.top
     << "\ntrials " << req.trials << "\nseed " << req.seed << "\n";
  return seal(os);
}

CacheKey key_of(const Request& req) {
  return std::visit([](const auto& r) { return key_of(r); }, req);
}

}  // namespace rchls::api
