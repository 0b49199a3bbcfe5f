#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include "graph/engine.hpp"
#include "graph/graph_builder.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::dense_dist;
using bsr::test::make_connected_random;
using bsr::test::make_cycle;
using bsr::test::make_path;
using bsr::test::make_random;
using bsr::test::make_star;
using bsr::test::naive_bfs;

TEST(Bfs, PathGraphDistances) {
  const CsrGraph g = make_path(5);
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::AllEdges{});
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(ws.dist(v), v);
}

TEST(Bfs, UnreachableVertices) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const CsrGraph g = b.build();
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(1), 1u);
  EXPECT_EQ(ws.dist(2), kUnreachable);
  EXPECT_EQ(ws.dist(3), kUnreachable);
}

TEST(Bfs, WorkspaceReusableAcrossSources) {
  const CsrGraph g = make_cycle(8);
  engine::Workspace ws(g.num_vertices());
  engine::bfs(g, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(4), 4u);
  engine::bfs(g, 3, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(3), 0u);
  EXPECT_EQ(ws.dist(7), 4u);
  EXPECT_EQ(ws.dist(0), 3u);
}

TEST(Bfs, FilteredBfsRespectsPredicate) {
  const CsrGraph g = make_path(5);
  engine::Workspace ws;
  // Block the 2-3 edge: everything past vertex 2 unreachable.
  engine::bfs(g, 0, ws, [](NodeId u, std::size_t, NodeId v) {
    return !((u == 2 && v == 3) || (u == 3 && v == 2));
  });
  EXPECT_EQ(ws.dist(2), 2u);
  EXPECT_EQ(ws.dist(3), kUnreachable);
  EXPECT_EQ(ws.dist(4), kUnreachable);
}

TEST(Bfs, BoundedBfsStopsAtDepth) {
  const CsrGraph g = make_path(10);
  engine::Workspace ws;
  engine::bfs_bounded(g, 0, 3, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(3), 3u);
  EXPECT_EQ(ws.dist(4), kUnreachable);
}

TEST(Bfs, ShortestPathEndpoints) {
  const CsrGraph g = make_cycle(6);
  const auto path = bfs_shortest_path(g, 0, 3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(Bfs, ShortestPathTrivialAndUnreachable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();
  EXPECT_EQ(bfs_shortest_path(g, 1, 1), std::vector<NodeId>{1});
  EXPECT_TRUE(bfs_shortest_path(g, 0, 2).empty());
}

TEST(Bfs, StarGraphAllWithinTwo) {
  const CsrGraph g = make_star(20);
  engine::Workspace ws;
  engine::bfs(g, 5, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(0), 1u);
  for (NodeId v = 1; v < 20; ++v) {
    if (v != 5) {
      EXPECT_EQ(ws.dist(v), 2u);
    }
  }
}

class BfsRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsRandomTest, MatchesNaiveReference) {
  const CsrGraph g = make_random(60, 0.08, GetParam());
  engine::Workspace ws(g.num_vertices());
  for (NodeId s = 0; s < g.num_vertices(); s += 7) {
    engine::bfs(g, s, ws, engine::AllEdges{});
    const auto fast = dense_dist(ws, g.num_vertices());
    const auto reference = naive_bfs(g, s);
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(fast[v], reference[v]) << "source " << s << " vertex " << v;
    }
  }
}

TEST_P(BfsRandomTest, ShortestPathLengthMatchesDistance) {
  const CsrGraph g = make_connected_random(40, 0.1, GetParam());
  const auto dist = naive_bfs(g, 0);
  for (NodeId t = 1; t < g.num_vertices(); t += 5) {
    const auto path = bfs_shortest_path(g, 0, t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size() - 1, dist[t]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandomTest, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace bsr::graph
