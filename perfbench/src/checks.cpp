// Corpus files, the digest manifest, the independent oracles, and the
// layer probes the traced run adds after its measured phase.
#include <algorithm>
#include <set>

#include "api/cache.hpp"
#include "api/disk_cache.hpp"
#include "api/wire.hpp"
#include "bench.hpp"
#include "circuits/components.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"
#include "ser/characterize.hpp"
#include "ser/fault_injection.hpp"
#include "sta/delay_model.hpp"
#include "sta/design.hpp"
#include "sta/sensitivity.hpp"
#include "sta/timing.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

// --------------------------------------------------------------- corpus

Corpus load_corpus(const Options& opts) {
  return {opts.corpus_dir(),
          workload::generate_corpus({opts.corpus_seed, opts.corpus_count})};
}

std::string report_digest(const std::string& report_json) {
  return to_hex64(fnv1a64(report_json));
}

Manifest load_manifest(const Options& opts) {
  Manifest m;
  std::error_code ec;
  if (opts.manifest.empty() || !fs::exists(opts.manifest, ec)) return m;
  json::Value doc = json::parse(read_file(opts.manifest));
  std::uint64_t seed = std::stoull(doc.at("corpus_seed").as_string());
  auto count = static_cast<std::size_t>(doc.at("corpus_count").as_int());
  if (seed != opts.corpus_seed || count != opts.corpus_count) return m;
  m.corpus_seed = seed;
  m.corpus_count = count;
  for (const auto& c : doc.at("cases").items()) {
    m.digests.push_back(c.at("report").as_string());
  }
  if (m.digests.size() != count) throw Error("manifest: wrong case count");
  return m;
}

// -------------------------------------------------------------- oracles

namespace {

bool same(const ser::InjectionResult& a, const ser::InjectionResult& b) {
  return a.trials == b.trials && a.propagated == b.propagated &&
         a.logical_sensitivity == b.logical_sensitivity &&
         a.susceptibility == b.susceptibility &&
         a.half_width_95 == b.half_width_95;
}

// The netlist a rank_gates / sta result was computed on: the component,
// or the scenario graph elaborated under the version policy.
netlist::Netlist target_netlist(const scenario::Scenario& scn,
                                const std::string& component,
                                const std::string& versions, int width) {
  if (!component.empty()) return circuits::component_by_name(component, width);
  return sta::elaborate_design(*scn.graph, scn.library, versions, width)
      .netlist;
}

// Up to three rows, drawn with the case's sample seed.
std::vector<std::size_t> sample_rows(std::size_t rows, std::uint64_t seed) {
  std::vector<std::size_t> order = shuffled(rows, seed);
  order.resize(std::min<std::size_t>(order.size(), 3));
  return order;
}

}  // namespace

void run_oracles(const scenario::Scenario& scn,
                 const scenario::RunReport& report, std::uint64_t sample_seed,
                 const std::string& case_name, Checks& checks) {
  if (report.actions.size() != scn.actions.size()) {
    return checks.fail(case_name + ": report lacks actions");
  }
  for (std::size_t ai = 0; ai < scn.actions.size(); ++ai) {
    const scenario::Action& action = scn.actions[ai];
    const api::Result& result = report.actions[ai].data;
    if (const auto* a = std::get_if<scenario::InjectAction>(&action.op)) {
      const auto* r = std::get_if<api::InjectResult>(&result);
      if (!r) return checks.fail(case_name + ": inject result missing");
      netlist::Netlist nl = circuits::component_by_name(a->component, a->width);
      ser::InjectionConfig cfg;
      cfg.trials = a->trials;
      cfg.seed = a->seed;
      // A single-gate campaign has no brute-force twin; inject_gate is
      // its reference.
      ser::InjectionResult ref =
          a->gate ? ser::inject_gate(nl, *a->gate, cfg)
                  : ser::inject_campaign_reference(nl, cfg);
      ++checks.oracle_inject;
      if (!same(ref, r->result)) {
        checks.fail(case_name + ": inject differs from the reference campaign");
      }
    } else if (const auto* a =
                   std::get_if<scenario::RankGatesAction>(&action.op)) {
      const auto* r = std::get_if<api::RankGatesResult>(&result);
      if (!r) return checks.fail(case_name + ": rank_gates result missing");
      netlist::Netlist nl = target_netlist(scn, a->component, "", a->width);
      ser::InjectionConfig cfg;
      cfg.trials = a->trials;
      cfg.seed = a->seed;
      for (std::size_t i : sample_rows(r->gates.size(), sample_seed)) {
        const auto& row = r->gates[i];
        ++checks.oracle_gate_rows;
        if (!same(ser::inject_gate(nl, row.gate, cfg), row.result)) {
          checks.fail(case_name + ": rank_gates row for gate " +
                      std::to_string(row.gate) + " differs from inject_gate");
        }
      }
    } else if (const auto* a = std::get_if<scenario::StaAction>(&action.op)) {
      const auto* r = std::get_if<api::StaResult>(&result);
      if (!r) return checks.fail(case_name + ": sta result missing");
      netlist::Netlist nl =
          target_netlist(scn, a->component, a->versions, a->width);
      ser::InjectionConfig cfg;
      cfg.trials = a->trials;
      cfg.seed = a->seed;
      for (std::size_t i : sample_rows(r->rows.size(), sample_seed)) {
        const auto& row = r->rows[i];
        ++checks.oracle_gate_rows;
        ser::InjectionResult ref = ser::inject_gate(nl, row.gate, cfg);
        if (ref.logical_sensitivity != row.sensitivity ||
            row.kind != netlist::to_string(nl.gate(row.gate).kind)) {
          checks.fail(case_name + ": sta row for gate " +
                      std::to_string(row.gate) + " differs from inject_gate");
        }
      }
    }
  }
}

// ------------------------------------------------------ sta stage spans

StageRerun rerun_sta_stages(const std::vector<StaExecution>& log) {
  // One re-run per distinct case (a cold pass repeats every case).
  std::vector<const StaExecution*> distinct;
  for (const auto& e : log) {
    bool seen = std::any_of(distinct.begin(), distinct.end(),
                            [&](const StaExecution* d) {
                              return d->case_index == e.case_index;
                            });
    if (!seen) distinct.push_back(&e);
  }
  Tracer& t = tracer();
  api::LocalExecutor local;
  StageRerun out;
  for (const StaExecution* e : distinct) {
    const api::StaRequest& req = e->request;
    std::int64_t start = now_ns();
    local.run(req);
    std::int64_t end = now_ns();
    t.record("sta.request.rerun", start, end);
    out.request_ns += end - start;
    auto stages = t.span("sta.stages", 1 + e->case_index);
    // Target resolution: elaborate the graph, or build the component.
    std::optional<rtl::Elaboration> elab;
    std::optional<netlist::Netlist> component_nl;
    {
      auto s = t.span("rtl.elaborate");
      if (req.graph) {
        elab = sta::elaborate_design(*req.graph, req.library, req.versions,
                                     req.width);
      } else {
        component_nl = circuits::component_by_name(req.component, req.width);
      }
    }
    const netlist::Netlist& nl = elab ? elab->netlist : *component_nl;
    std::optional<netlist::Topology> topo;
    {
      auto s = t.span("netlist.topology");
      topo.emplace(nl);
    }
    sta::TimingReport report;
    {
      auto s = t.span("sta.analyze");
      sta::DelayModel dm =
          elab ? sta::DelayModel::from_library(nl, elab->gate_version,
                                               req.library)
               : sta::DelayModel::unit(nl);
      sta::TimingOptions topt;
      topt.clock = req.clock;
      topt.top_paths = static_cast<std::size_t>(req.top_paths);
      report = sta::analyze(nl, *topo, dm, topt);
    }
    ser::InjectionConfig cfg;
    cfg.trials = req.trials;
    cfg.seed = req.seed;
    std::vector<ser::GateSensitivity> ranking;
    {
      auto s = t.span("ser.sensitivity");
      ranking = ser::rank_gate_sensitivities(nl, cfg);
    }
    {
      auto s = t.span("sta.join");
      sta::join_sensitivity(ranking, report);
    }
    out.gate_trials += static_cast<double>(topo->logic_gates().size()) *
                       static_cast<double>(req.trials);
  }
  return out;
}

// ---------------------------------------------------------------- layers

void add_layer(std::vector<Metric>& out, const std::string& name,
               const LayerTime& layer, const std::string& unit) {
  double scale = unit == "ms" ? 1e6 : 1e3;  // ns per unit
  Metric m{name, 0.0, unit, static_cast<std::int64_t>(layer.calls),
           static_cast<double>(layer.total_ns) / scale};
  m.value = layer.calls ? m.total / static_cast<double>(layer.calls) : 0.0;
  out.push_back(m);
}

void probe_disk_layers(const std::vector<ProbeInput>& inputs,
                       const fs::path& cache_dir, bool expect_hits,
                       std::vector<Metric>& out, Checks& checks) {
  // A fresh instance over the workload's directory: a hit per entry in
  // replay_warm, and in corpus_cold a miss then a store, as the cold
  // session does (a request the corpus repeats hits its first store).
  api::DiskCache disk(cache_dir);
  std::set<std::string> stored;
  Tracer& t = tracer();
  std::int64_t since = now_ns();
  double entry_bytes = 0.0;
  std::uint64_t entries = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ProbeInput& in = inputs[i];
    auto op = t.span("probe.case", 1 + i);
    api::CacheKey key;
    {
      auto s = t.span("api.cache.key");
      key = api::key_of(in.request);
    }
    std::optional<api::Result> found;
    {
      auto s = t.span("api.disk_cache.find");
      found = disk.find(key);
    }
    bool hit_expected = expect_hits || stored.count(key.canonical) > 0;
    if (found.has_value() != hit_expected) {
      checks.fail("probe: disk cache " +
                  std::string(hit_expected ? "missed" : "hit") +
                  " the entry of request " + std::to_string(i));
    }
    if (!hit_expected) {
      auto s = t.span("api.disk_cache.store");
      disk.store(key, in.result);
      stored.insert(key.canonical);
    }
    std::error_code ec;
    auto size = fs::file_size(cache_dir / (to_hex64(key.digest) + ".json"), ec);
    if (!ec) {
      entry_bytes += static_cast<double>(size);
      ++entries;
    }
    std::string encoded;
    {
      auto s = t.span("api.wire.encode_result");
      encoded = api::wire::encode(in.result);
    }
    if (expect_hits) {
      // The decode DiskCache::find runs on the stored result envelope.
      auto s = t.span("api.wire.decode_result");
      api::wire::decode_result(encoded);
    }
  }
  auto lt = layer_times(t.spans(), since);
  add_layer(out, "api.cache.key_us", lt["api.cache.key"], "us");
  add_layer(out, "api.disk_cache.find_us", lt["api.disk_cache.find"], "us");
  out.push_back({"api.disk_cache.entry_bytes",
                 entries ? entry_bytes / static_cast<double>(entries) : 0.0,
                 "bytes"});
  add_layer(out, "api.disk_cache.store_us", lt["api.disk_cache.store"], "us");
  add_layer(out, "api.wire.decode_result_us", lt["api.wire.decode_result"],
            "us");
  add_layer(out, "api.wire.encode_result_us", lt["api.wire.encode_result"],
            "us");
}

void engine_layer_metrics(const Phase& traced,
                          const std::vector<StaExecution>& sta_log,
                          std::vector<Metric>& out, Checks& checks) {
  Tracer& t = tracer();
  auto phase = layer_times(t.spans(), traced.start_ns);
  // Executor-seam spans of the traced phase only (the stage re-runs
  // below come later and record other names).
  add_layer(out, "hls.find_design_ms", phase["hls.find_design"], "ms");
  add_layer(out, "hls.sweep_ms", phase["hls.sweep"], "ms");
  add_layer(out, "hls.grid_ms", phase["hls.grid"], "ms");
  add_layer(out, "ser.inject_ms", phase["ser.inject"], "ms");
  add_layer(out, "ser.rank_gates_ms", phase["ser.rank_gates"], "ms");

  add_layer(out, "sta.request_ms", phase["sta.request"], "ms");

  std::int64_t since = now_ns();
  StageRerun rerun = rerun_sta_stages(sta_log);
  auto st = layer_times(t.spans(), since);
  static constexpr const char* kStages[][2] = {
      {"rtl.elaborate", "rtl.elaborate_ms"},
      {"netlist.topology", "netlist.topology_ms"},
      {"sta.analyze", "sta.analyze_ms"},
      {"ser.sensitivity", "ser.sensitivity_ms"},
      {"sta.join", "sta.join_ms"}};
  double stage_ns = 0.0;
  for (const auto& s : kStages) {
    add_layer(out, s[1], st[s[0]], "ms");
    stage_ns += static_cast<double>(st[s[0]].total_ns);
  }
  const LayerTime& sens = st["ser.sensitivity"];
  out.push_back({"ser.gate_trials_per_s",
                 sens.total_ns ? rerun.gate_trials /
                                     (static_cast<double>(sens.total_ns) / 1e9)
                               : 0.0,
                 "1/s"});
  // The five stages must account for the request they were cut from.
  double coverage =
      rerun.request_ns > 0
          ? stage_ns / static_cast<double>(rerun.request_ns)
          : 0.0;
  out.push_back({"sta.stage_coverage", coverage, "ratio"});
  if (rerun.request_ns > 0 &&
      (coverage < kStageCoverageMin || coverage > kStageCoverageMax)) {
    checks.fail("sta stage spans cover " + std::to_string(coverage) +
                " of the re-run sta requests, outside the stated tolerance");
  }
}

}  // namespace perfbench
