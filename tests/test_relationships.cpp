#include "topology/relationships.hpp"

#include <gtest/gtest.h>

#include "graph/graph_builder.hpp"
#include "test_util.hpp"
#include "topology/internet.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::GraphBuilder;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;

/// Builds a small hierarchy:
///        0   (tier-1)
///       / \
///      1   2    (0 provides to 1 and 2; 1-2 peer)
///     /     \
///    3       4  (1 provides to 3, 2 provides to 4)
struct Hierarchy {
  CsrGraph graph;
  EdgeRelations rels;

  Hierarchy() {
    GraphBuilder b(5);
    b.add_edge(0, 1);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 4);
    graph = b.build();
    const std::vector<Edge> edges = graph.edges();
    std::vector<EdgeRel> labels;
    for (const Edge& e : edges) {
      if (e.u == 1 && e.v == 2) {
        labels.push_back(EdgeRel::kPeer);
      } else {
        labels.push_back(EdgeRel::kUProviderOfV);  // lower id is the provider
      }
    }
    rels = EdgeRelations(graph, edges, labels);
  }
};

TEST(EdgeRelations, LookupAndDirection) {
  const Hierarchy h;
  EXPECT_TRUE(h.rels.is_peer(1, 2));
  EXPECT_TRUE(h.rels.is_peer(2, 1));
  EXPECT_TRUE(h.rels.is_provider_of(0, 1));
  EXPECT_FALSE(h.rels.is_provider_of(1, 0));
  EXPECT_TRUE(h.rels.is_provider_of(1, 3));
  EXPECT_FALSE(h.rels.is_provider_of(3, 1));
}

TEST(EdgeRelations, PeerFraction) {
  const Hierarchy h;
  EXPECT_NEAR(h.rels.peer_fraction(), 1.0 / 5.0, 1e-12);
}

TEST(EdgeRelations, ConstructionValidation) {
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  labels.pop_back();
  EXPECT_THROW(EdgeRelations(g, edges, labels), std::invalid_argument);

  // Non-canonical edge.
  const std::vector<Edge> bad{{1, 0}, {1, 2}};
  const std::vector<EdgeRel> two(2, EdgeRel::kPeer);
  EXPECT_THROW(EdgeRelations(g, bad, two), std::invalid_argument);

  // Edge not in the graph.
  const std::vector<Edge> missing{{0, 1}, {0, 2}};
  EXPECT_THROW(EdgeRelations(g, missing, two), std::invalid_argument);
}

TEST(EdgeRelations, NonEdgeLookupsThrow) {
  // Edges {0-1, 0-3, 1-2}: (0, 2) and (2, 3) are not edges. The lookups
  // used to read another edge's slot (or one past a row) in release builds.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 3);
  b.add_edge(1, 2);
  const CsrGraph g = b.build();
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kUProviderOfV);
  const EdgeRelations rels(g, edges, labels);
  EXPECT_THROW((void)rels.is_peer(0, 2), std::invalid_argument);
  EXPECT_THROW((void)rels.is_peer(2, 0), std::invalid_argument);
  EXPECT_THROW((void)rels.rel_canonical(2, 3), std::invalid_argument);
  EXPECT_THROW((void)rels.is_provider_of(3, 2), std::invalid_argument);
  EXPECT_THROW((void)rels.is_peer(0, 0), std::invalid_argument);
  EXPECT_THROW((void)rels.rel_canonical(1, 4), std::invalid_argument);
  EXPECT_THROW((void)rels.rel_canonical(7, 9), std::invalid_argument);
  EXPECT_THROW((void)EdgeRelations().is_peer(0, 1), std::invalid_argument);
  // Real edges still answer.
  EXPECT_EQ(rels.rel_canonical(2, 1), EdgeRel::kUProviderOfV);
  EXPECT_TRUE(rels.is_provider_of(0, 3));
}

TEST(ValleyFree, SourceOutOfRangeThrows) {
  const Hierarchy h;
  EXPECT_THROW((void)valley_free_distances(h.graph, h.rels, 5), std::out_of_range);
  EXPECT_THROW((void)valley_free_distances(h.graph, h.rels, kUnreachable),
               std::out_of_range);
}

TEST(ValleyFree, UphillThenDownhillAllowed) {
  const Hierarchy h;
  // 3 -> 1 (up) -> 0 (up) -> 2 (down) -> 4 (down) is valid (the peer
  // shortcut via 1-2 is shorter; see PeerShortcutUsableOnce).
  const auto dist = valley_free_distances(h.graph, h.rels, 3);
  EXPECT_LE(dist[4], 4u);
  EXPECT_EQ(dist[0], 2u);
}

TEST(ValleyFree, PeerShortcutUsableOnce) {
  const Hierarchy h;
  // 3 -> 1 (up) -> 2 (peer) -> 4 (down) is also valid, length 3.
  const auto dist = valley_free_distances(h.graph, h.rels, 3);
  EXPECT_EQ(dist[4], 3u);
}

TEST(ValleyFree, NoValleyThroughCustomer) {
  // Two providers of a shared customer cannot transit through it.
  GraphBuilder b(3);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const CsrGraph g = b.build();
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kUProviderOfV);
  const EdgeRelations rels(g, edges, labels);
  const auto dist = valley_free_distances(g, rels, 0);
  EXPECT_EQ(dist[2], 1u);            // down to the customer: fine
  EXPECT_EQ(dist[1], kUnreachable);  // back up from the customer: valley!
}

TEST(ValleyFree, TwoPeerHopsForbidden) {
  // 0 -peer- 1 -peer- 2: 0 cannot reach 2.
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  const EdgeRelations rels(g, edges, labels);
  const auto dist = valley_free_distances(g, rels, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(ValleyFree, OverrideEdgesBypassPolicy) {
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  const EdgeRelations rels(g, edges, labels);
  const auto dist = valley_free_distances(
      g, rels, 0, {}, [](NodeId, NodeId) { return true; });
  EXPECT_EQ(dist[2], 2u);  // overrides make the path free
}

TEST(ValleyFree, EdgeFilterRestrictsFurther) {
  const Hierarchy h;
  // Forbid every edge: nothing reachable.
  const auto dist = valley_free_distances(
      h.graph, h.rels, 3, [](NodeId, NodeId) { return false; }, {});
  EXPECT_EQ(dist[1], kUnreachable);
  EXPECT_EQ(dist[3], 0u);
}

TEST(ValleyFreePath, ReconstructsAdmissiblePath) {
  const Hierarchy h;
  const auto path = valley_free_path(h.graph, h.rels, 3, 4);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), 3u);
  EXPECT_EQ(path.back(), 4u);
  // Path length must match the distance oracle.
  const auto dist = valley_free_distances(h.graph, h.rels, 3);
  EXPECT_EQ(path.size() - 1, dist[4]);
  // Every hop must be a real edge.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(h.graph.has_edge(path[i], path[i + 1]));
  }
}

TEST(ValleyFreePath, EmptyWhenPolicyBlocks) {
  // Two peers of peers: unreachable (TwoPeerHopsForbidden case).
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  const EdgeRelations rels(g, edges, labels);
  EXPECT_TRUE(valley_free_path(g, rels, 0, 2).empty());
  EXPECT_EQ(valley_free_path(g, rels, 1, 1), std::vector<NodeId>{1});
  EXPECT_TRUE(valley_free_path(g, rels, 0, 99).empty());
}

TEST(ValleyFreePath, LengthsMatchDistancesOnRandomGraphs) {
  auto cfg = InternetConfig{}.scaled(0.01);
  cfg.seed = 77;
  const auto topo = make_internet(cfg);
  const auto dist = valley_free_distances(topo.graph, topo.relations, 5);
  for (NodeId dst = 0; dst < topo.num_vertices(); dst += 37) {
    const auto path = valley_free_path(topo.graph, topo.relations, 5, dst);
    if (dist[dst] == kUnreachable) {
      EXPECT_TRUE(path.empty());
    } else if (dst != 5) {
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.size() - 1, dist[dst]) << "dst " << dst;
    }
  }
}

TEST(Inference, DegreeGapImpliesProvider) {
  const CsrGraph g = bsr::test::make_star(8);
  const auto edges = g.edges();
  const auto inferred = infer_relationships_by_degree(g, edges, 2.0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    // Center (id 0, degree 7) vs leaves (degree 1): center is provider.
    EXPECT_EQ(inferred[i], EdgeRel::kUProviderOfV);
  }
}

TEST(Inference, BalancedDegreesImplyPeering) {
  const CsrGraph g = bsr::test::make_cycle(6);
  const auto inferred = infer_relationships_by_degree(g, g.edges(), 2.0);
  for (const EdgeRel rel : inferred) EXPECT_EQ(rel, EdgeRel::kPeer);
}

TEST(Inference, RejectsBadRatio) {
  const CsrGraph g = bsr::test::make_cycle(4);
  EXPECT_THROW(infer_relationships_by_degree(g, g.edges(), 0.5),
               std::invalid_argument);
}

TEST(Inference, RecoversGroundTruthOnInternetTopology) {
  auto cfg = InternetConfig{}.scaled(0.02);
  cfg.seed = 31;
  const auto topo = make_internet(cfg);
  const auto edges = topo.graph.edges();
  const auto inferred = infer_relationships_by_degree(topo.graph, edges);
  // The degree heuristic cannot see hub-to-stub peering (the IXP-derived
  // mesh), so overall label accuracy is moderate; what must hold is the
  // *direction* of true transit edges: when both truth and inference agree
  // an edge is provider-customer, the provider side should rarely invert.
  std::size_t agree = 0, transit_classified = 0, inverted = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeRel truth = topo.relations.rel_canonical(edges[i].u, edges[i].v);
    if (truth == inferred[i]) ++agree;
    if (truth != EdgeRel::kPeer && inferred[i] != EdgeRel::kPeer) {
      ++transit_classified;
      if (truth != inferred[i]) ++inverted;
    }
  }
  ASSERT_GT(transit_classified, 100u);
  EXPECT_LT(static_cast<double>(inverted) / transit_classified, 0.10);
  EXPECT_GT(static_cast<double>(agree) / edges.size(), 0.30);
}

}  // namespace
}  // namespace bsr::topology
