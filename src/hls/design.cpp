#include "hls/design.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "bind/left_edge.hpp"
#include "reliability/algebra.hpp"
#include "sched/density.hpp"
#include "sched/force_directed.hpp"
#include "sched/list.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rchls::hls {

std::vector<int> delays_for(const dfg::Graph& g,
                            const library::ResourceLibrary& lib,
                            std::span<const library::VersionId> version_of) {
  if (version_of.size() != g.node_count()) {
    throw Error("delays_for: assignment size mismatch");
  }
  std::vector<int> delays(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    delays[id] = lib.version(version_of[id]).delay;
  }
  return delays;
}

std::vector<int> class_groups(const dfg::Graph& g) {
  std::vector<int> group(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    group[id] =
        library::class_of(g.node(id).op) == library::ResourceClass::kAdder
            ? 0
            : 1;
  }
  return group;
}

Design assemble(const dfg::Graph& g, const library::ResourceLibrary& lib,
                std::vector<library::VersionId> version_of, int latency,
                SchedulerKind scheduler) {
  Design d;
  d.version_of = std::move(version_of);
  auto delays = delays_for(g, lib, d.version_of);
  auto groups = class_groups(g);

  d.schedule = scheduler == SchedulerKind::kDensity
                   ? sched::density_schedule(g, delays, latency, groups)
                   : sched::force_directed_schedule(g, delays, latency,
                                                    groups);
  d.binding = bind::left_edge_bind(g, lib, d.version_of, d.schedule);

  // Sharing-improvement pass (the paper's "Update resource sharing"): the
  // latency-constrained scheduler can leave avoidable concurrency peaks.
  // Try shaving one instance off a version at a time with a resource-
  // constrained list schedule; keep every reduction that still meets the
  // latency target. Versions are tried biggest-area first.
  std::vector<int> version_group(g.node_count());
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    version_group[id] = static_cast<int>(d.version_of[id]);
  }
  auto counts = bind::instance_histogram(d.binding, lib);
  std::vector<library::VersionId> by_area;
  for (library::VersionId v = 0; v < lib.size(); ++v) by_area.push_back(v);
  std::sort(by_area.begin(), by_area.end(),
            [&lib](library::VersionId a, library::VersionId b) {
              return lib.version(a).area > lib.version(b).area;
            });

  bool improved = true;
  while (improved) {
    improved = false;
    for (library::VersionId v : by_area) {
      if (counts[v] <= 1) continue;
      std::vector<int> trial = counts;
      trial[v] -= 1;
      // list_schedule needs a positive count for every group key.
      std::vector<int> instances(lib.size());
      for (library::VersionId k = 0; k < lib.size(); ++k) {
        instances[k] = std::max(trial[k], 1);
      }
      sched::Schedule s =
          sched::list_schedule(g, delays, version_group, instances);
      if (s.latency > latency) continue;
      d.schedule = std::move(s);
      d.binding = bind::left_edge_bind(g, lib, d.version_of, d.schedule);
      counts = bind::instance_histogram(d.binding, lib);
      improved = true;
      break;
    }
  }

  d.copies.assign(d.binding.instances.size(), 1);
  evaluate(d, g, lib);
  return d;
}

AssembleMemo::AssembleMemo(const dfg::Graph& g,
                           const library::ResourceLibrary& lib)
    : g_(g), lib_(lib) {}

std::shared_ptr<const Design> AssembleMemo::assemble(
    std::span<const library::VersionId> version_of, int latency,
    SchedulerKind scheduler) {
  Key key{{version_of.begin(), version_of.end()}, latency, scheduler};
  {
    std::lock_guard lock(mu_);
    if (auto it = designs_.find(key); it != designs_.end()) return it->second;
  }
  auto design = std::make_shared<const Design>(
      hls::assemble(g_, lib_, key.version_of, latency, scheduler));
  std::lock_guard lock(mu_);
  return designs_.try_emplace(std::move(key), std::move(design))
      .first->second;
}

std::size_t AssembleMemo::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the assignment's bytes, continued over the other fields.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(k.version_of.data()),
      k.version_of.size() * sizeof(library::VersionId)));
  h = (h ^ static_cast<std::uint64_t>(k.latency)) * kPrime;
  h = (h ^ static_cast<std::uint64_t>(k.scheduler)) * kPrime;
  return static_cast<std::size_t>(h);
}

void evaluate(Design& d, const dfg::Graph& g,
              const library::ResourceLibrary& lib) {
  if (d.copies.size() != d.binding.instances.size()) {
    throw Error("evaluate: copies/instances size mismatch");
  }
  d.latency = d.schedule.latency;

  d.area = 0.0;
  for (std::size_t i = 0; i < d.binding.instances.size(); ++i) {
    d.area += lib.version(d.binding.instances[i].version).area *
              static_cast<double>(d.copies[i]);
  }

  d.reliability = 1.0;
  for (dfg::NodeId id = 0; id < g.node_count(); ++id) {
    double r = lib.version(d.version_of[id]).reliability;
    int copies = d.copies[d.binding.instance_of[id]];
    d.reliability *= reliability::modular_redundancy(r, copies);
  }
}

void validate_design(const Design& d, const dfg::Graph& g,
                     const library::ResourceLibrary& lib) {
  auto delays = delays_for(g, lib, d.version_of);
  sched::validate_schedule(g, delays, d.schedule);
  bind::validate_binding(g, lib, d.version_of, d.schedule, d.binding);
  if (d.copies.size() != d.binding.instances.size()) {
    throw ValidationError("validate_design: copies size mismatch");
  }
  for (int c : d.copies) {
    if (c < 1 || (c > 2 && c % 2 == 0)) {
      throw ValidationError("validate_design: invalid copy count");
    }
  }

  Design check = d;
  evaluate(check, g, lib);
  auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a),
                                               std::abs(b)});
  };
  if (check.latency != d.latency || !close(check.area, d.area) ||
      !close(check.reliability, d.reliability)) {
    throw ValidationError("validate_design: stale metrics");
  }
}

}  // namespace rchls::hls
