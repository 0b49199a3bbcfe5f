// Property test: the layered valley-free BFS agrees with brute-force
// simple-path enumeration on small random graphs with random relationship
// labels — exact distances, with and without edge_ok/override predicates —
// and valley_free_path returns an admissible path of exactly that length.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "test_util.hpp"
#include "topology/relationships.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Rng;
using bsr::test::naive_bfs;

using EdgePredicate = std::function<bool(NodeId, NodeId)>;

struct LabeledGraph {
  CsrGraph graph;
  EdgeRelations rels;
};

LabeledGraph make_labeled(std::uint64_t seed) {
  const CsrGraph g = bsr::test::make_connected_random(10, 0.25, seed);
  const auto edges = g.edges();
  Rng rng(seed * 31 + 7);
  std::vector<EdgeRel> labels;
  labels.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto roll = rng.uniform(3);
    labels.push_back(static_cast<EdgeRel>(roll));
  }
  return {g, EdgeRelations(g, edges, labels)};
}

/// Phase reached by hop u -> v from `phase` under the Gao rules, ignoring
/// overrides; -1 if the hop is not allowed. 0 = climbing, 1 = peer hop used,
/// 2 = descending. Written against the (u, v) lookup API, not the slot rows.
int next_phase(const EdgeRelations& rels, NodeId u, NodeId v, int phase) {
  if (rels.is_peer(u, v)) return phase == 0 ? 1 : -1;
  if (rels.is_provider_of(v, u)) return phase == 0 ? 0 : -1;
  return 2;  // p2c from any phase
}

/// Brute force: DFS over *simple* paths tracking the valley-free phase,
/// recording the fewest hops that reach each vertex.
void enumerate(const LabeledGraph& lg, const EdgePredicate& edge_ok,
               const EdgePredicate& override_edge, NodeId u, int phase,
               std::uint32_t hops, std::vector<bool>& on_path,
               std::vector<std::uint32_t>& best) {
  best[u] = std::min(best[u], hops);
  for (const NodeId v : lg.graph.neighbors(u)) {
    if (on_path[v]) continue;
    if (edge_ok && !edge_ok(u, v)) continue;
    const int next = override_edge && override_edge(u, v)
                         ? phase
                         : next_phase(lg.rels, u, v, phase);
    if (next < 0) continue;
    on_path[v] = true;
    enumerate(lg, edge_ok, override_edge, v, next, hops + 1, on_path, best);
    on_path[v] = false;
  }
}

std::vector<std::uint32_t> brute_force(const LabeledGraph& lg, NodeId src,
                                       const EdgePredicate& edge_ok = {},
                                       const EdgePredicate& override_edge = {}) {
  const NodeId n = lg.graph.num_vertices();
  std::vector<std::uint32_t> best(n, kUnreachable);
  std::vector<bool> on_path(n, false);
  on_path[src] = true;
  enumerate(lg, edge_ok, override_edge, src, 0, 0, on_path, best);
  return best;
}

/// True iff `path` is a valley-free walk over edges of the graph.
bool admissible(const LabeledGraph& lg, const std::vector<NodeId>& path) {
  int phase = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!lg.graph.has_edge(path[i], path[i + 1])) return false;
    phase = next_phase(lg.rels, path[i], path[i + 1], phase);
    if (phase < 0) return false;
  }
  return true;
}

class ValleyFreePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValleyFreePropertyTest, DistancesMatchBruteForce) {
  // The BFS explores walks, not simple paths. A shortest valley-free walk is
  // always simple: the phase never decreases along a walk and every hop
  // allowed from a later phase is allowed from an earlier one, so cutting
  // out a cycle keeps the walk admissible and makes it shorter.
  const LabeledGraph lg = make_labeled(GetParam());
  const NodeId n = lg.graph.num_vertices();
  for (NodeId src = 0; src < n; ++src) {
    EXPECT_EQ(valley_free_distances(lg.graph, lg.rels, src), brute_force(lg, src))
        << "seed " << GetParam() << " src " << src;
  }
}

TEST_P(ValleyFreePropertyTest, FilteredAndOverriddenDistancesMatchBruteForce) {
  const LabeledGraph lg = make_labeled(GetParam() + 300);
  const NodeId n = lg.graph.num_vertices();
  Rng rng(GetParam() * 7 + 1);
  std::vector<bool> broker(n, false);
  for (NodeId v = 0; v < n; ++v) broker[v] = rng.bernoulli(0.5);
  std::vector<bool> exempt(static_cast<std::size_t>(n) * n, false);
  for (const Edge& e : lg.graph.edges()) {
    const bool coin = rng.bernoulli(0.3);
    exempt[e.u * n + e.v] = coin;
    exempt[e.v * n + e.u] = coin;
  }
  const EdgePredicate edge_ok = [&broker](NodeId u, NodeId v) {
    return broker[u] || broker[v];
  };
  const EdgePredicate override_edge = [&exempt, n](NodeId u, NodeId v) {
    return static_cast<bool>(exempt[u * n + v]);
  };
  for (NodeId src = 0; src < n; ++src) {
    EXPECT_EQ(valley_free_distances(lg.graph, lg.rels, src, edge_ok, {}),
              brute_force(lg, src, edge_ok, {}))
        << "edge_ok: seed " << GetParam() << " src " << src;
    EXPECT_EQ(valley_free_distances(lg.graph, lg.rels, src, {}, override_edge),
              brute_force(lg, src, {}, override_edge))
        << "override: seed " << GetParam() << " src " << src;
    EXPECT_EQ(valley_free_distances(lg.graph, lg.rels, src, edge_ok, override_edge),
              brute_force(lg, src, edge_ok, override_edge))
        << "both: seed " << GetParam() << " src " << src;
  }
}

TEST_P(ValleyFreePropertyTest, PathIsAdmissibleAndShortest) {
  const LabeledGraph lg = make_labeled(GetParam() + 400);
  const NodeId n = lg.graph.num_vertices();
  for (NodeId src = 0; src < n; ++src) {
    const auto dist = valley_free_distances(lg.graph, lg.rels, src);
    for (NodeId dst = 0; dst < n; ++dst) {
      const auto path = valley_free_path(lg.graph, lg.rels, src, dst);
      if (dist[dst] == kUnreachable) {
        EXPECT_TRUE(path.empty()) << "src " << src << " dst " << dst;
        continue;
      }
      ASSERT_EQ(path.size(), dist[dst] + 1) << "src " << src << " dst " << dst;
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dst);
      EXPECT_TRUE(admissible(lg, path)) << "src " << src << " dst " << dst;
    }
  }
}

TEST_P(ValleyFreePropertyTest, PolicyNeverBeatsFreeRouting) {
  const LabeledGraph lg = make_labeled(GetParam() + 100);
  for (NodeId src = 0; src < lg.graph.num_vertices(); src += 3) {
    const auto free_dist = naive_bfs(lg.graph, src);
    const auto policy = valley_free_distances(lg.graph, lg.rels, src);
    for (NodeId v = 0; v < lg.graph.num_vertices(); ++v) {
      if (policy[v] == kUnreachable) continue;
      EXPECT_GE(policy[v], free_dist[v]) << "policy found a shorter path?!";
    }
  }
}

TEST_P(ValleyFreePropertyTest, FullOverrideEqualsFreeRouting) {
  const LabeledGraph lg = make_labeled(GetParam() + 200);
  const auto everything = [](NodeId, NodeId) { return true; };
  for (NodeId src = 0; src < lg.graph.num_vertices(); src += 4) {
    EXPECT_EQ(valley_free_distances(lg.graph, lg.rels, src, {}, everything),
              naive_bfs(lg.graph, src));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValleyFreePropertyTest,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{61}));

}  // namespace
}  // namespace bsr::topology
