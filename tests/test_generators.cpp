#include <gtest/gtest.h>

#include <algorithm>

#include "graph/components.hpp"
#include "graph/degree_stats.hpp"
#include "topology/ba.hpp"
#include "topology/er.hpp"
#include "topology/ws.hpp"
#include "test_util.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;

// --- Erdős–Rényi ----------------------------------------------------------

TEST(ErGenerator, ExactEdgeCount) {
  const CsrGraph g = make_er(100, 500, 1);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 500u);
}

TEST(ErGenerator, CapsAtCompleteGraph) {
  const CsrGraph g = make_er(5, 1000, 2);
  EXPECT_EQ(g.num_edges(), 10u);
}

TEST(ErGenerator, DeterministicInSeed) {
  const CsrGraph a = make_er(50, 200, 42);
  const CsrGraph b = make_er(50, 200, 42);
  EXPECT_EQ(a.edges(), b.edges());
  const CsrGraph c = make_er(50, 200, 43);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(ErGenerator, RejectsTinyGraphs) {
  EXPECT_THROW(make_er(1, 0, 3), std::invalid_argument);
}

TEST(ErGenerator, DegreesConcentrated) {
  // ER degrees concentrate near the mean — p99/mean stays small, in sharp
  // contrast to BA (the property Table 3 exploits).
  const CsrGraph g = make_er(2000, 10000, 4);
  const auto stats = bsr::graph::compute_degree_stats(g);
  EXPECT_LT(stats.p99, stats.mean * 2.5);
}

// --- Watts–Strogatz --------------------------------------------------------

TEST(WsGenerator, LatticeWithoutRewiring) {
  const CsrGraph g = make_ws(20, 4, 0.0, 5);
  EXPECT_EQ(g.num_edges(), 40u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 19));
  EXPECT_TRUE(g.has_edge(0, 18));
}

TEST(WsGenerator, RewiringKeepsEdgeBudget) {
  const CsrGraph g = make_ws(200, 6, 0.3, 6);
  // Rewiring can only lose edges to rare duplicate collisions.
  EXPECT_GE(g.num_edges(), 580u);
  EXPECT_LE(g.num_edges(), 600u);
}

TEST(WsGenerator, FullRewiringStillValid) {
  const CsrGraph g = make_ws(100, 4, 1.0, 7);
  EXPECT_GT(g.num_edges(), 150u);
}

TEST(WsGenerator, RejectsBadParameters) {
  EXPECT_THROW(make_ws(3, 2, 0.1, 8), std::invalid_argument);   // n too small
  EXPECT_THROW(make_ws(10, 3, 0.1, 8), std::invalid_argument);  // odd k
  EXPECT_THROW(make_ws(10, 10, 0.1, 8), std::invalid_argument); // k >= n
  EXPECT_THROW(make_ws(10, 4, 1.5, 8), std::invalid_argument);  // beta > 1
}

TEST(WsGenerator, SmallWorldShortcutsShortenPaths) {
  // With rewiring, expected distances shrink vs the pure lattice.
  const CsrGraph lattice = make_ws(400, 4, 0.0, 9);
  const CsrGraph rewired = make_ws(400, 4, 0.2, 9);
  const auto d_lattice = bsr::test::naive_bfs(lattice, 0);
  const auto d_rewired = bsr::test::naive_bfs(rewired, 0);
  double sum_lattice = 0, sum_rewired = 0;
  int counted = 0;
  for (NodeId v = 0; v < 400; ++v) {
    if (d_rewired[v] == bsr::graph::kUnreachable) continue;
    sum_lattice += d_lattice[v];
    sum_rewired += d_rewired[v];
    ++counted;
  }
  ASSERT_GT(counted, 300);
  EXPECT_LT(sum_rewired, sum_lattice * 0.6);
}

// --- Barabási–Albert -------------------------------------------------------

TEST(BaGenerator, EdgeCountApproximatelyNm) {
  const CsrGraph g = make_ba(500, 3, 10);
  // Seed clique C(4,2) = 6 edges + ~3 per subsequent vertex.
  EXPECT_GE(g.num_edges(), 6u + 3u * 490u);
  EXPECT_LE(g.num_edges(), 6u + 3u * 496u);
}

TEST(BaGenerator, Connected) {
  const CsrGraph g = make_ba(300, 2, 11);
  EXPECT_EQ(bsr::graph::connected_components(g).count, 1u);
}

TEST(BaGenerator, HeavyTail) {
  const CsrGraph g = make_ba(3000, 3, 12);
  const auto stats = bsr::graph::compute_degree_stats(g);
  // Scale-free: max degree far above the mean.
  EXPECT_GT(stats.max, stats.mean * 10);
  EXPECT_GT(stats.power_law_alpha, 1.5);
  EXPECT_LT(stats.power_law_alpha, 4.0);
}

TEST(BaGenerator, RejectsBadParameters) {
  EXPECT_THROW(make_ba(5, 0, 13), std::invalid_argument);
  EXPECT_THROW(make_ba(3, 3, 13), std::invalid_argument);
}

TEST(BaGenerator, DeterministicInSeed) {
  EXPECT_EQ(make_ba(100, 2, 14).edges(), make_ba(100, 2, 14).edges());
}

}  // namespace
}  // namespace bsr::topology
