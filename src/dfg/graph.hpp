// Data-flow graph (DFG) intermediate representation.
//
// A DFG Gs(V, E) is the behavioral input to the synthesis problem (paper
// Section 6): nodes are operations, edges are data dependences. Following
// the paper, operand values / primary inputs are implicit -- only
// operations are modeled, and the graph must be a DAG.
//
// A Graph keeps its topological order: the first topological_order() call
// on a graph state runs Kahn's algorithm, later calls return the same
// vector, and add_node / add_edge drop it. The scheduling kernels (asap,
// alap, critical_path, the schedulers) ask for the order on every call,
// and grid and sweep workers share one graph, so the order is built once
// per graph state and safe to read from several threads at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rchls::dfg {

using NodeId = std::uint32_t;

/// Operation kinds appearing in the HLS benchmarks. Comparisons and
/// subtractions execute on adder-class resources; multiplications on
/// multiplier-class resources (see library/resource.hpp).
enum class OpType : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kLt,  ///< less-than comparison (DiffEq's loop test)
};

const char* to_string(OpType op);

/// Parses "add" / "sub" / "mul" / "lt"; throws ParseError otherwise.
OpType op_from_string(const std::string& s);

struct Node {
  std::string name;
  OpType op = OpType::kAdd;
};

class Graph {
 public:
  explicit Graph(std::string name = "dfg");

  const std::string& name() const { return name_; }

  /// Adds an operation; names must be unique and non-empty.
  NodeId add_node(const std::string& name, OpType op);

  /// Adds the dependence `from -> to`. Duplicate edges are rejected.
  void add_edge(NodeId from, NodeId to);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edge_count_; }
  const Node& node(NodeId id) const;
  const std::vector<Node>& nodes() const { return nodes_; }

  const std::vector<NodeId>& predecessors(NodeId id) const;
  const std::vector<NodeId>& successors(NodeId id) const;

  /// Nodes with no predecessors / successors.
  std::vector<NodeId> sources() const;
  std::vector<NodeId> sinks() const;

  /// Node id by name; throws Error if absent.
  NodeId find(const std::string& name) const;
  bool contains(const std::string& name) const;

  /// Number of nodes of the given operation type.
  std::size_t count_ops(OpType op) const;

  /// Kahn topological order, smallest ready id first; throws
  /// ValidationError on every call while the graph has a cycle. Built on
  /// the first call after a mutation and kept, so concurrent callers on a
  /// graph no thread mutates get the same vector. The reference stays
  /// valid until the next add_node / add_edge or the graph's destruction.
  const std::vector<NodeId>& topological_order() const;

  /// Full structural check: DAG-ness plus internal adjacency consistency.
  void validate() const;

 private:
  void check_id(NodeId id, const char* who) const;
  /// Kahn's algorithm; the result is short of node_count() on a cycle.
  std::vector<NodeId> kahn_order() const;

  /// The topological order of the current graph state, built on first use
  /// under `mu`; `ready` publishes `order` and `cyclic` to lock-free
  /// readers. A copy or an assigned-to graph starts without one, so a
  /// graph never shares its order with another.
  struct OrderCache {
    OrderCache() = default;
    OrderCache(const OrderCache&) noexcept {}
    OrderCache& operator=(const OrderCache&) noexcept {
      drop();
      return *this;
    }
    /// Forgets the order; only from a mutation, which no reader races.
    void drop() noexcept {
      ready.store(false, std::memory_order_relaxed);
      order.clear();
      cyclic = false;
    }

    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<NodeId> order;
    bool cyclic = false;
  };

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> preds_;
  std::vector<std::vector<NodeId>> succs_;
  std::size_t edge_count_ = 0;
  mutable OrderCache order_;
};

}  // namespace rchls::dfg
