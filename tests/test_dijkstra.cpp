#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include "graph/engine.hpp"
#include "graph/graph_builder.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_connected_random;
using bsr::test::make_path;

const EdgeWeightFn kUnitWeight = [](NodeId, NodeId) { return 1.0; };

TEST(Dijkstra, UnitWeightsMatchBfs) {
  const CsrGraph g = make_connected_random(50, 0.1, 77);
  const auto result = dijkstra(g, 0, kUnitWeight);
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::AllEdges{});
  const auto bfs = bsr::test::dense_dist(ws, g.num_vertices());
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(bfs[v], kUnreachable);
    EXPECT_DOUBLE_EQ(result.distance[v], static_cast<double>(bfs[v]));
  }
}

TEST(Dijkstra, WeightedShortcutPreferred) {
  // 0-1-2 with weights 1 each, plus direct 0-2 with weight 5: path wins.
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const CsrGraph g = b.build();
  const auto weight = [](NodeId u, NodeId v) {
    if ((u == 0 && v == 2) || (u == 2 && v == 0)) return 5.0;
    return 1.0;
  };
  const auto result = dijkstra(g, 0, weight);
  EXPECT_DOUBLE_EQ(result.distance[2], 2.0);
  EXPECT_EQ(extract_path(result, 0, 2), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();
  const auto result = dijkstra(g, 0, kUnitWeight);
  EXPECT_EQ(result.distance[2], kInfDistance);
  EXPECT_TRUE(extract_path(result, 0, 2).empty());
}

TEST(Dijkstra, NegativeWeightThrows) {
  const CsrGraph g = make_path(3);
  EXPECT_THROW(dijkstra(g, 0, [](NodeId, NodeId) { return -1.0; }),
               std::invalid_argument);
}

TEST(Dijkstra, PathReconstructionValid) {
  const CsrGraph g = make_connected_random(30, 0.15, 99);
  const auto result = dijkstra(g, 0, kUnitWeight);
  for (NodeId t = 1; t < g.num_vertices(); t += 3) {
    const auto path = extract_path(result, 0, t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), t);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }
  }
}

TEST(Dijkstra, SourceDistanceZero) {
  const CsrGraph g = make_path(4);
  const auto result = dijkstra(g, 2, kUnitWeight);
  EXPECT_DOUBLE_EQ(result.distance[2], 0.0);
  EXPECT_EQ(extract_path(result, 2, 2), std::vector<NodeId>{2});
}

}  // namespace
}  // namespace bsr::graph
