// The result type of every synthesis engine: a fully bound data path with
// per-operation version assignment, schedule, binding, optional modular
// redundancy, and its evaluated latency / area / reliability.
//
// assemble() turns a version assignment into a Design. The engines'
// greedy walks assemble the same (assignment, latency) many times over: a
// grid's cells, a sweep's points, the combined approach's area budgets and
// find_design's explore bounds re-walk each other's steps. AssembleMemo
// holds one request's assemble() results so that each distinct key is
// scheduled and bound once (twice or more only when pool workers miss it
// at the same moment); the engines take their assemblies from it.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "bind/binding.hpp"
#include "library/resource.hpp"
#include "sched/schedule.hpp"

namespace rchls::hls {

/// Which latency-constrained scheduler the engines use.
enum class SchedulerKind {
  kDensity,        ///< the paper's partition-density scheduler
  kForceDirected,  ///< classic FDS (ablation alternative)
};

struct Design {
  /// Version executing each operation, indexed by NodeId.
  std::vector<library::VersionId> version_of;
  sched::Schedule schedule;
  bind::Binding binding;
  /// Modular-redundancy copies per binding instance (all 1 when the design
  /// uses no redundancy). copies[i] is 1, 2 (duplex+rollback) or odd >= 3
  /// (majority NMR).
  std::vector<int> copies;

  int latency = 0;        ///< schedule latency in cycles
  double area = 0.0;      ///< sum over instances of version area * copies
  double reliability = 0; ///< product over operations (Section 5 model)
};

/// Per-node delay vector induced by a version assignment.
std::vector<int> delays_for(const dfg::Graph& g,
                            const library::ResourceLibrary& lib,
                            std::span<const library::VersionId> version_of);

/// Resource-class group key per node (0 = adder, 1 = multiplier), the
/// grouping the schedulers' distribution graphs partition over.
std::vector<int> class_groups(const dfg::Graph& g);

/// Schedules (at target latency) and binds the given version assignment,
/// producing a redundancy-free Design with all metrics evaluated.
/// Throws NoSolutionError if `latency` is infeasible for the assignment.
Design assemble(const dfg::Graph& g, const library::ResourceLibrary& lib,
                std::vector<library::VersionId> version_of, int latency,
                SchedulerKind scheduler = SchedulerKind::kDensity);

/// The assemble() results of one engine request over one (graph, library),
/// keyed by (version assignment, target latency, scheduler). assemble() is
/// a pure function of these, so a memoized Design is the one a fresh call
/// would build, field for field. A key that throws is not stored: each
/// call assembles it again and throws the same error. Thread-safe: a
/// lookup and an insert each take the lock, and the assembly between them
/// runs outside it, so workers that miss the same key at once each
/// assemble it and all return the Design stored first. The graph and
/// library must outlive the memo and stay unchanged while it lives; it
/// grows with the request's distinct keys and frees them when it is
/// destroyed.
class AssembleMemo {
 public:
  AssembleMemo(const dfg::Graph& g, const library::ResourceLibrary& lib);

  const dfg::Graph& graph() const { return g_; }
  const library::ResourceLibrary& library() const { return lib_; }

  /// assemble(graph(), library(), version_of, latency, scheduler), built
  /// on the key's first call and shared by every later one.
  std::shared_ptr<const Design> assemble(
      std::span<const library::VersionId> version_of, int latency,
      SchedulerKind scheduler);

 private:
  struct Key {
    std::vector<library::VersionId> version_of;
    int latency = 0;
    SchedulerKind scheduler = SchedulerKind::kDensity;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  const dfg::Graph& g_;
  const library::ResourceLibrary& lib_;
  std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const Design>, KeyHash>
      designs_;  // guarded by mu_
};

/// Recomputes latency, area and reliability from the design's fields
/// (call after changing `copies`).
void evaluate(Design& d, const dfg::Graph& g,
              const library::ResourceLibrary& lib);

/// Full structural verification of a design against a graph/library:
/// schedule validity, binding validity, copies sanity, and metric
/// consistency. Throws ValidationError on any violation. Used by tests and
/// assertions inside the engines.
void validate_design(const Design& d, const dfg::Graph& g,
                     const library::ResourceLibrary& lib);

}  // namespace rchls::hls
