#include "dfg/graph.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace rchls::dfg {

const char* to_string(OpType op) {
  switch (op) {
    case OpType::kAdd: return "add";
    case OpType::kSub: return "sub";
    case OpType::kMul: return "mul";
    case OpType::kLt: return "lt";
  }
  return "?";
}

OpType op_from_string(const std::string& s) {
  if (s == "add") return OpType::kAdd;
  if (s == "sub") return OpType::kSub;
  if (s == "mul") return OpType::kMul;
  if (s == "lt") return OpType::kLt;
  throw ParseError("unknown operation type '" + s + "'");
}

Graph::Graph(std::string name) : name_(std::move(name)) {}

NodeId Graph::add_node(const std::string& name, OpType op) {
  if (name.empty()) throw Error("add_node: name must not be empty");
  if (contains(name)) {
    throw Error("add_node: duplicate node name '" + name + "'");
  }
  nodes_.push_back(Node{name, op});
  preds_.emplace_back();
  succs_.emplace_back();
  order_.drop();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Graph::add_edge(NodeId from, NodeId to) {
  check_id(from, "add_edge");
  check_id(to, "add_edge");
  if (from == to) throw Error("add_edge: self-loop on '" + nodes_[from].name +
                              "'");
  auto& out = succs_[from];
  if (std::find(out.begin(), out.end(), to) != out.end()) {
    throw Error("add_edge: duplicate edge " + nodes_[from].name + " -> " +
                nodes_[to].name);
  }
  out.push_back(to);
  preds_[to].push_back(from);
  ++edge_count_;
  order_.drop();
}

const Node& Graph::node(NodeId id) const {
  check_id(id, "node");
  return nodes_[id];
}

const std::vector<NodeId>& Graph::predecessors(NodeId id) const {
  check_id(id, "predecessors");
  return preds_[id];
}

const std::vector<NodeId>& Graph::successors(NodeId id) const {
  check_id(id, "successors");
  return succs_[id];
}

std::vector<NodeId> Graph::sources() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (preds_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Graph::sinks() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (succs_[id].empty()) out.push_back(id);
  }
  return out;
}

NodeId Graph::find(const std::string& name) const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].name == name) return id;
  }
  throw Error("find: no node named '" + name + "' in " + name_);
}

bool Graph::contains(const std::string& name) const {
  for (const Node& n : nodes_) {
    if (n.name == name) return true;
  }
  return false;
}

std::size_t Graph::count_ops(OpType op) const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.op == op) ++n;
  }
  return n;
}

const std::vector<NodeId>& Graph::topological_order() const {
  if (!order_.ready.load(std::memory_order_acquire)) {
    std::lock_guard lock(order_.mu);
    if (!order_.ready.load(std::memory_order_relaxed)) {
      order_.order = kahn_order();
      order_.cyclic = order_.order.size() != nodes_.size();
      order_.ready.store(true, std::memory_order_release);
    }
  }
  if (order_.cyclic) {
    throw ValidationError(name_ + ": graph contains a cycle");
  }
  return order_.order;
}

std::vector<NodeId> Graph::kahn_order() const {
  std::vector<std::size_t> indegree(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    indegree[id] = preds_[id].size();
  }
  // Smallest-ready-id-first keeps the order deterministic and, for graphs
  // whose ids are already topologically sorted (all built-in benchmarks),
  // identical to id order -- which downstream consumers (elaboration port
  // order, reports) rely on for readability.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
      ready;
  for (NodeId id : sources()) ready.push(id);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    NodeId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (NodeId s : succs_[id]) {
      if (--indegree[s] == 0) ready.push(s);
    }
  }
  return order;
}

void Graph::validate() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId s : succs_[id]) {
      const auto& p = preds_[s];
      if (std::find(p.begin(), p.end(), id) == p.end()) {
        throw ValidationError(name_ + ": adjacency lists inconsistent");
      }
    }
  }
  (void)topological_order();  // throws on cycles
}

void Graph::check_id(NodeId id, const char* who) const {
  if (id >= nodes_.size()) {
    throw Error(std::string(who) + ": node id out of range in " + name_);
  }
}

}  // namespace rchls::dfg
