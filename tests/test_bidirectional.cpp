// Differential test of engine::bfs_bidirectional and the Router routes built
// on it: for every ordered pair of many random graphs, the path must equal,
// vertex for vertex, the parent chain a textbook early-exit FIFO BFS from src
// records for dst — under all four edge filters, random broker masks, and
// random failed links and vertices.
#include "graph/engine.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/fault_plane.hpp"
#include "graph/graph_builder.hpp"
#include "graph/rng.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"
#include "topology/ba.hpp"
#include "topology/er.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_random;
using bsr::test::make_star;

/// Textbook BFS: std::queue, neighbors in adjacency order, stop at the first
/// discovery of dst, then walk the parent chain back. admit(u, v) decides
/// edges without slots, independent of the engine filter structs.
template <class Admit>
std::vector<NodeId> textbook_route(const CsrGraph& g, NodeId src, NodeId dst,
                                   Admit admit) {
  if (src == dst) return {src};
  std::vector<NodeId> parent(g.num_vertices(), kUnreachable);
  std::queue<NodeId> queue;
  parent[src] = src;
  queue.push(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (parent[v] != kUnreachable || !admit(u, v)) continue;
      parent[v] = u;
      if (v == dst) {
        std::vector<NodeId> path{dst};
        while (path.back() != src) path.push_back(parent[path.back()]);
        return {path.rbegin(), path.rend()};
      }
      queue.push(v);
    }
  }
  return {};
}

std::string describe(const std::vector<NodeId>& path) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < path.size(); ++i) out << (i ? " " : "") << path[i];
  out << "]";
  return out.str();
}

/// Compares the kernel with the textbook BFS on every ordered pair; reports
/// the first few mismatches with `label` (seed and filter) and the pair.
template <class Filter, class Admit>
void expect_all_pairs_match(const CsrGraph& g, engine::Workspace& ws, Filter filter,
                            Admit admit, const std::string& label) {
  int failures = 0;
  for (NodeId s = 0; s < g.num_vertices(); ++s) {
    for (NodeId t = 0; t < g.num_vertices(); ++t) {
      const auto got = engine::bfs_bidirectional(g, s, t, ws, filter);
      const auto want = textbook_route(g, s, t, admit);
      if (got != want && ++failures <= 3) {
        ADD_FAILURE() << label << " pair " << s << " -> " << t << ": got "
                      << describe(got) << ", textbook " << describe(want);
      }
    }
  }
  EXPECT_EQ(failures, 0) << label;
}

/// Random endpoints' failures: ~12% of edges and ~6% of vertices down.
void fail_random(const CsrGraph& g, FaultPlane& faults, Rng& rng) {
  for (NodeId u = 0; u < g.num_vertices(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v && rng.bernoulli(0.12)) faults.fail_edge(u, v);
    }
    if (rng.bernoulli(0.06)) faults.fail_vertex(u);
  }
}

std::vector<bool> random_mask(NodeId n, Rng& rng) {
  const double p = 0.1 + 0.4 * rng.uniform01();
  std::vector<bool> mask(n, false);
  for (NodeId v = 0; v < n; ++v) mask[v] = rng.bernoulli(p);
  return mask;
}

/// All four filters on one graph, with a random broker mask and fault set.
void check_graph(const CsrGraph& g, Rng& rng, engine::Workspace& ws,
                 const std::string& label) {
  const std::vector<bool> mask = random_mask(g.num_vertices(), rng);
  FaultPlane faults(g);
  fail_random(g, faults, rng);
  const engine::DominatedEdgeFilter dom{&mask};
  const engine::FaultAwareFilter up{&faults};
  const auto dom_ref = [&](NodeId u, NodeId v) { return mask[u] || mask[v]; };
  const auto up_ref = [&](NodeId u, NodeId v) {
    return faults.vertex_ok(u) && faults.vertex_ok(v) && faults.edge_ok(u, v);
  };
  expect_all_pairs_match(g, ws, engine::AllEdges{},
                         [](NodeId, NodeId) { return true; }, label + " all-edges");
  expect_all_pairs_match(g, ws, dom, dom_ref, label + " dominated");
  expect_all_pairs_match(g, ws, up, up_ref, label + " fault-aware");
  expect_all_pairs_match(
      g, ws, engine::BothFilters{dom, up},
      [&](NodeId u, NodeId v) { return dom_ref(u, v) && up_ref(u, v); },
      label + " both");
}

TEST(Bidirectional, MatchesTextbookBfsOnRandomErGraphs) {
  engine::Workspace ws;  // shared across sizes: no state may leak between runs
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<NodeId>(2 + rng.uniform(69));
    // Average degree 0.6..3.6: many components and isolated vertices.
    const auto m = static_cast<std::uint64_t>(n * (0.3 + 1.5 * rng.uniform01()));
    const CsrGraph g = topology::make_er(n, m, seed);
    check_graph(g, rng, ws, "ER seed " + std::to_string(seed));
  }
}

TEST(Bidirectional, MatchesTextbookBfsOnRandomBaGraphs) {
  engine::Workspace ws;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed + 1000);
    const auto n = static_cast<NodeId>(5 + rng.uniform(66));
    const auto per_vertex = static_cast<std::uint32_t>(1 + rng.uniform(3));
    const CsrGraph g = topology::make_ba(n, per_vertex, seed);
    check_graph(g, rng, ws, "BA seed " + std::to_string(seed));
  }
}

TEST(Bidirectional, MatchesTextbookBfsOnDenseGraphsWithManyTies) {
  // Dense graphs have many equal-length paths per pair, so a wrong
  // tie-break shows up as a different vertex sequence.
  engine::Workspace ws;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed + 2000);
    const CsrGraph g = make_random(static_cast<NodeId>(20 + rng.uniform(40)),
                                   0.1 + 0.3 * rng.uniform01(), seed);
    check_graph(g, rng, ws, "dense seed " + std::to_string(seed));
  }
}

TEST(Bidirectional, StarsExpandTheBackwardSideFirst) {
  // From the hub to a leaf the leaf's front is cheaper, so the backward side
  // expands first; two hubs joined by a path make both sides deep.
  engine::Workspace ws;
  Rng rng(3000);
  check_graph(make_star(40), rng, ws, "star");
  GraphBuilder b(64);
  for (NodeId v = 1; v < 30; ++v) b.add_edge(0, v);
  for (NodeId v = 31; v < 60; ++v) b.add_edge(30, v);
  b.add_edge(29, 60);
  b.add_edge(60, 61);
  b.add_edge(61, 31);
  b.add_edge(5, 62);  // 63 stays isolated
  const CsrGraph stars = b.build();
  for (int round = 0; round < 5; ++round) {
    check_graph(stars, rng, ws, "two stars round " + std::to_string(round));
  }
}

TEST(Bidirectional, TrivialAndUnreachableEndpoints) {
  engine::Workspace ws;
  const CsrGraph one = make_random(1, 0.0, 1);
  EXPECT_EQ(engine::bfs_bidirectional(one, 0, 0, ws, engine::AllEdges{}),
            std::vector<NodeId>{0});
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();  // 2 and 3 isolated
  EXPECT_TRUE(engine::bfs_bidirectional(g, 0, 2, ws, engine::AllEdges{}).empty());
  EXPECT_TRUE(engine::bfs_bidirectional(g, 2, 3, ws, engine::AllEdges{}).empty());
  EXPECT_EQ(engine::bfs_bidirectional(g, 1, 0, ws, engine::AllEdges{}),
            (std::vector<NodeId>{1, 0}));
  EXPECT_EQ(engine::bfs_bidirectional(g, 3, 3, ws, engine::AllEdges{}),
            std::vector<NodeId>{3});
}

TEST(Bidirectional, RouterRoutesMatchTextbookBfs) {
  // Through the Router's dispatch: free and dominated routes with and
  // without a fault plane, and the belief route of a health view.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed + 4000);
    const CsrGraph g = topology::make_ba(static_cast<NodeId>(30 + rng.uniform(50)),
                                         2, seed);
    const NodeId n = g.num_vertices();
    broker::BrokerSet brokers(n);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(0.3)) brokers.add(v);
    }
    FaultPlane faults(g);
    fail_random(g, faults, rng);
    sim::HealthView view;
    view.routable = random_mask(n, rng);
    sim::Router plain(g, brokers);
    sim::Router faulty(g, brokers, &faults);
    faulty.set_health_view(&view);
    const auto dom = [&](NodeId u, NodeId v) {
      return brokers.contains(u) || brokers.contains(v);
    };
    const auto up = [&](NodeId u, NodeId v) {
      return faults.vertex_ok(u) && faults.vertex_ok(v) && faults.edge_ok(u, v);
    };
    const auto believed = [&](NodeId u, NodeId v) {
      return view.routable[u] || view.routable[v];
    };
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        const std::string pair = "seed " + std::to_string(seed) + " pair " +
                                 std::to_string(s) + " -> " + std::to_string(t);
        const bool ends_up = faults.vertex_ok(s) && faults.vertex_ok(t);
        ASSERT_EQ(plain.route_free(s, t).path,
                  textbook_route(g, s, t, [](NodeId, NodeId) { return true; }))
            << pair;
        ASSERT_EQ(plain.route_dominated(s, t).path, textbook_route(g, s, t, dom))
            << pair;
        ASSERT_EQ(faulty.route_free(s, t).path,
                  ends_up ? textbook_route(g, s, t, up) : std::vector<NodeId>{})
            << pair;
        ASSERT_EQ(faulty.route_dominated(s, t).path,
                  ends_up ? textbook_route(g, s, t,
                                           [&](NodeId u, NodeId v) {
                                             return dom(u, v) && up(u, v);
                                           })
                          : std::vector<NodeId>{})
            << pair;
        ASSERT_EQ(faulty.route_with_health(s, t).route.path,
                  textbook_route(g, s, t, believed))
            << pair;
      }
    }
  }
}

}  // namespace
}  // namespace bsr::graph
