#include "netlist/fault_engine.hpp"

#include <limits>

#include "util/error.hpp"

namespace rchls::netlist {

FaultEngine::FaultEngine(const Netlist& nl, const Topology& topo)
    : nl_(nl), topo_(topo) {
  if (topo.gate_count() != nl.gate_count()) {
    throw Error("FaultEngine: topology does not match netlist");
  }
  const std::size_t n = nl.gate_count();
  faulty_.assign(n, 0);
  stamp_.assign(n, 0);
  queued_.assign(n, 0);
  buckets_.resize(static_cast<std::size_t>(topo.max_level()) + 1);
}

void FaultEngine::set_inputs(const std::vector<std::uint64_t>& input_words) {
  eval_netlist(nl_, input_words, std::nullopt, golden_);
  have_inputs_ = true;
}

void FaultEngine::next_epoch() {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    stamp_.assign(stamp_.size(), 0);
    queued_.assign(queued_.size(), 0);
    epoch_ = 0;
  }
  ++epoch_;
}

std::uint64_t FaultEngine::eval_gate(const Gate& g) const {
  std::uint64_t a = value_of(g.fanin0);
  switch (g.kind) {
    case GateKind::kBuf: return a;
    case GateKind::kNot: return ~a;
    case GateKind::kAnd: return a & value_of(g.fanin1);
    case GateKind::kOr: return a | value_of(g.fanin1);
    case GateKind::kNand: return ~(a & value_of(g.fanin1));
    case GateKind::kNor: return ~(a | value_of(g.fanin1));
    case GateKind::kXor: return a ^ value_of(g.fanin1);
    case GateKind::kXnor: return ~(a ^ value_of(g.fanin1));
    default:
      throw Error("FaultEngine: fanin-free gate reached the frontier");
  }
}

void FaultEngine::enqueue_fanouts(GateId id, std::uint32_t last_level) {
  for (const GateId* f = topo_.fanout_begin(id); f != topo_.fanout_end(id);
       ++f) {
    // A gate that reaches no output cannot change the corruption word,
    // and a gate past the last level is not asked for.
    std::uint32_t lvl = topo_.level(*f);
    if (queued_[*f] != epoch_ && lvl <= last_level && topo_.is_live(*f)) {
      queued_[*f] = epoch_;
      buckets_[lvl].push_back(*f);
      ++pending_;
    }
  }
}

std::uint64_t FaultEngine::inject(const Fault& fault) {
  return propagate(fault, topo_.max_level());
}

std::uint64_t FaultEngine::inject_until(const Fault& fault, GateId stop) {
  if (stop >= nl_.gate_count() || !topo_.is_live(stop)) {
    throw Error("FaultEngine::inject_until: stop gate must be live");
  }
  propagate(fault, topo_.level(stop));
  return value_of(stop) ^ golden_[stop];
}

std::uint64_t FaultEngine::propagate(const Fault& fault,
                                     std::uint32_t last_level) {
  if (!have_inputs_) {
    throw Error("FaultEngine::inject: set_inputs was never called");
  }
  if (fault.gate >= nl_.gate_count()) {
    throw Error("FaultEngine::inject: fault gate out of range");
  }
  last_evaluations_ = 0;
  // A fresh epoch even for a strike that changes nothing, so that
  // inject_until reads golden values rather than the previous overlay.
  next_epoch();
  if (fault.lane_mask == 0 || !topo_.is_live(fault.gate)) return 0;
  pending_ = 0;

  // Seed: the victim's value flips under the mask; its diff IS the mask.
  faulty_[fault.gate] = golden_[fault.gate] ^ fault.lane_mask;
  stamp_[fault.gate] = epoch_;
  std::uint64_t corruption =
      topo_.is_output_bit(fault.gate) ? fault.lane_mask : 0;
  enqueue_fanouts(fault.gate, last_level);

  // Level-ordered frontier: fanouts always sit at a strictly higher level
  // than their driver, so a single ascending sweep evaluates every touched
  // gate exactly once, after all its disturbed fanins. The sweep stops as
  // soon as no queued gate remains -- the moment every diff went to zero,
  // or the frontier passed `last_level`, above which nothing is enqueued.
  for (std::uint32_t lvl = topo_.level(fault.gate) + 1; pending_ > 0; ++lvl) {
    std::vector<GateId>& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      GateId id = bucket[i];
      --pending_;
      ++last_evaluations_;
      std::uint64_t v = eval_gate(nl_.gates()[id]);
      std::uint64_t diff = v ^ golden_[id];
      if (diff == 0) continue;  // masked here; nothing to propagate
      faulty_[id] = v;
      stamp_[id] = epoch_;
      if (topo_.is_output_bit(id)) corruption |= diff;
      enqueue_fanouts(id, last_level);
    }
    bucket.clear();
  }
  return corruption;
}

}  // namespace rchls::netlist
