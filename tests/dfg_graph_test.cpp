#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "dfg/generate.hpp"
#include "dfg/graph.hpp"
#include "util/error.hpp"

namespace rchls::dfg {
namespace {

TEST(OpType, StringRoundTrip) {
  for (OpType op : {OpType::kAdd, OpType::kSub, OpType::kMul, OpType::kLt}) {
    EXPECT_EQ(op_from_string(to_string(op)), op);
  }
  EXPECT_THROW(op_from_string("div"), ParseError);
}

TEST(Graph, AddNodesAndEdges) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kMul);
  g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.predecessors(b).size(), 1u);
  EXPECT_EQ(g.node(b).op, OpType::kMul);
  EXPECT_EQ(g.find("a"), a);
  EXPECT_TRUE(g.contains("b"));
  EXPECT_FALSE(g.contains("c"));
}

TEST(Graph, RejectsDuplicatesAndSelfLoops) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), Error);
  EXPECT_THROW(g.add_edge(a, a), Error);
  EXPECT_THROW(g.add_node("a", OpType::kMul), Error);
  EXPECT_THROW(g.add_node("", OpType::kMul), Error);
}

TEST(Graph, RejectsBadIds) {
  Graph g("t");
  g.add_node("a", OpType::kAdd);
  EXPECT_THROW(g.add_edge(0, 5), Error);
  EXPECT_THROW(g.node(9), Error);
  EXPECT_THROW(g.find("nope"), Error);
}

TEST(Graph, SourcesAndSinks) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  NodeId c = g.add_node("c", OpType::kAdd);
  g.add_edge(a, c);
  g.add_edge(b, c);
  EXPECT_EQ(g.sources(), (std::vector<NodeId>{a, b}));
  EXPECT_EQ(g.sinks(), (std::vector<NodeId>{c}));
}

TEST(Graph, CountOps) {
  Graph g("t");
  g.add_node("a", OpType::kAdd);
  g.add_node("b", OpType::kMul);
  g.add_node("c", OpType::kMul);
  g.add_node("d", OpType::kLt);
  EXPECT_EQ(g.count_ops(OpType::kMul), 2u);
  EXPECT_EQ(g.count_ops(OpType::kAdd), 1u);
  EXPECT_EQ(g.count_ops(OpType::kSub), 0u);
}

TEST(Graph, TopologicalOrderRespectsEdges) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  NodeId c = g.add_node("c", OpType::kAdd);
  NodeId d = g.add_node("d", OpType::kAdd);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(a, d);
  g.add_edge(d, c);
  auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&order](NodeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));
  EXPECT_LT(pos(d), pos(c));
}

TEST(Graph, DetectsCycles) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  NodeId c = g.add_node("c", OpType::kAdd);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  EXPECT_THROW(g.topological_order(), ValidationError);
  EXPECT_THROW(g.validate(), ValidationError);
}

TEST(Graph, OrderReadBeforeGrowthIsReplaced) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  EXPECT_EQ(g.topological_order(), (std::vector<NodeId>{a, b}));
  NodeId c = g.add_node("c", OpType::kMul);
  EXPECT_EQ(g.topological_order(), (std::vector<NodeId>{a, b, c}));
  g.add_edge(c, a);  // a now waits for c
  g.add_edge(b, c);

  Graph fresh("t");
  fresh.add_node("a", OpType::kAdd);
  fresh.add_node("b", OpType::kAdd);
  fresh.add_node("c", OpType::kMul);
  fresh.add_edge(c, a);
  fresh.add_edge(b, c);
  EXPECT_EQ(g.topological_order(), (std::vector<NodeId>{b, c, a}));
  EXPECT_EQ(g.topological_order(), fresh.topological_order());
}

TEST(Graph, EdgeClosingACycleAfterAReadThrowsOnEveryCall) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  NodeId c = g.add_node("c", OpType::kAdd);
  g.add_edge(a, b);
  g.add_edge(b, c);
  EXPECT_EQ(g.topological_order().size(), 3u);
  g.validate();
  g.add_edge(c, a);
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(g.topological_order(), ValidationError);
    EXPECT_THROW(g.validate(), ValidationError);
  }
}

TEST(Graph, MutatingACopyLeavesTheOriginalsOrder) {
  Graph g("t");
  NodeId a = g.add_node("a", OpType::kAdd);
  NodeId b = g.add_node("b", OpType::kAdd);
  const std::vector<NodeId> before = g.topological_order();

  Graph copy = g;
  NodeId c = copy.add_node("c", OpType::kAdd);
  copy.add_edge(c, a);
  Graph assigned("other");
  assigned = g;
  assigned.add_edge(b, a);

  EXPECT_EQ(g.topological_order(), before);
  EXPECT_EQ(copy.topological_order(), (std::vector<NodeId>{b, c, a}));
  EXPECT_EQ(assigned.topological_order(), (std::vector<NodeId>{b, a}));
  EXPECT_EQ(g.topological_order(), before);
}

TEST(Graph, ConcurrentReadersOfAFreshGraphGetOneOrder) {
  GeneratorConfig gc;
  gc.num_nodes = 300;
  gc.seed = 7;
  const Graph generated = generate_random(gc);
  const std::vector<NodeId>& expected = generated.topological_order();
  const Graph g = generated;  // a copy starts without an order

  constexpr int kReaders = 8;
  std::latch start(kReaders);
  std::vector<const std::vector<NodeId>*> seen(kReaders, nullptr);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = &g.topological_order();
    });
  }
  for (auto& r : readers) r.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "reader " << t;
    EXPECT_EQ(*seen[t], expected) << "reader " << t;
  }
}

TEST(Graph, EmptyGraphIsValid) {
  Graph g("empty");
  g.validate();
  EXPECT_TRUE(g.topological_order().empty());
}

}  // namespace
}  // namespace rchls::dfg
