#include "graph/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/check.hpp"
#include "graph/components.hpp"
#include "graph/distance_histogram.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/rollback_union_find.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::dense_dist;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_random;
using bsr::test::naive_bfs;

std::vector<bool> random_mask(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> mask(n, false);
  for (NodeId v = 0; v < n; ++v) mask[v] = rng.bernoulli(p);
  return mask;
}

/// Textbook FIFO BFS over edges with admit(u, v): distances and the order
/// vertices are discovered in. Independent of the engine and its Workspace.
struct ReferenceBfs {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> order;
};

template <class Admit>
ReferenceBfs reference_bfs(const CsrGraph& g, NodeId source, Admit admit) {
  ReferenceBfs out{std::vector<std::uint32_t>(g.num_vertices(), kUnreachable), {}};
  std::queue<NodeId> queue;
  out.dist[source] = 0;
  out.order.push_back(source);
  queue.push(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (out.dist[v] != kUnreachable || !admit(u, v)) continue;
      out.dist[v] = out.dist[u] + 1;
      out.order.push_back(v);
      queue.push(v);
    }
  }
  return out;
}

std::vector<NodeId> visit_order(const engine::Workspace& ws) {
  return {ws.visit_order().begin(), ws.visit_order().end()};
}

TEST(Engine, UnfilteredBfsMatchesNaive) {
  engine::Workspace ws;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_random(80, 0.04, seed);
    for (NodeId s = 0; s < g.num_vertices(); s += 17) {
      engine::bfs(g, s, ws, engine::AllEdges{});
      EXPECT_EQ(dense_dist(ws, g.num_vertices()), naive_bfs(g, s));
    }
  }
}

TEST(Engine, FilteredKernelMatchesTextbookBfs) {
  // Same admission rule, same distances *and* the same discovery order as a
  // std::queue BFS: the static-dispatch kernel is a plain FIFO BFS.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const CsrGraph g = make_connected_random(120, 0.03, seed);
    const std::vector<bool> mask = random_mask(g.num_vertices(), 0.3, seed + 100);
    engine::Workspace ws;
    for (NodeId s = 0; s < g.num_vertices(); s += 23) {
      const ReferenceBfs ref = reference_bfs(
          g, s, [&mask](NodeId u, NodeId v) { return mask[u] || mask[v]; });
      engine::bfs(g, s, ws, engine::DominatedEdgeFilter{&mask});
      EXPECT_EQ(dense_dist(ws, g.num_vertices()), ref.dist);
      EXPECT_EQ(visit_order(ws), ref.order);
    }
  }
}

TEST(Engine, FaultAwareFilterMatchesMaterializedGraph) {
  const CsrGraph g = make_connected_random(60, 0.06, 3);
  FaultPlane plane(g);
  Rng rng(42);
  for (const Edge& e : g.edges()) {
    if (rng.bernoulli(0.2)) plane.fail_edge(e.u, e.v);
  }
  plane.fail_vertex(5);
  const CsrGraph survivors = plane.materialize();

  engine::Workspace ws;
  for (NodeId s = 0; s < g.num_vertices(); s += 11) {
    if (!plane.vertex_ok(s)) continue;
    engine::bfs(g, s, ws, engine::FaultAwareFilter{&plane});
    EXPECT_EQ(dense_dist(ws, g.num_vertices()), naive_bfs(survivors, s));
  }
}

TEST(Engine, BothFiltersIsConjunction) {
  const CsrGraph g = make_path(6);
  FaultPlane plane(g);
  plane.fail_edge(3, 4);
  std::vector<bool> mask(6, true);
  mask[0] = false;  // edge 0-1 still dominated via vertex 1
  engine::Workspace ws;
  engine::bfs(g, 0, ws,
              engine::BothFilters{engine::DominatedEdgeFilter{&mask},
                                  engine::FaultAwareFilter{&plane}});
  EXPECT_EQ(ws.dist(3), 3u);
  EXPECT_EQ(ws.dist(4), kUnreachable);  // blocked by the fault, not the mask
}

TEST(Engine, DirOptBfsMatchesClassicDistances) {
  // Distance equality across heuristic settings: defaults, forced bottom-up
  // (huge alpha switches after the first level, huge beta never switches
  // back), and forced top-down (alpha 0xffffffff never trips... use 1).
  engine::Workspace ws_classic, ws_dir;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_random(140, 0.05, seed);
    for (NodeId s = 0; s < g.num_vertices(); s += 19) {
      engine::bfs(g, s, ws_classic, engine::AllEdges{});
      const auto expected = dense_dist(ws_classic, g.num_vertices());
      engine::bfs_dir_opt(g, s, ws_dir, engine::AllEdges{});
      EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()), expected);
      engine::bfs_dir_opt(g, s, ws_dir, engine::AllEdges{}, 1u << 30, 1u << 30);
      EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()), expected);
      engine::bfs_dir_opt(g, s, ws_dir, engine::AllEdges{}, 1, 1);
      EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()), expected);
    }
  }
}

TEST(Engine, DirOptBfsMatchesClassicUnderFilters) {
  // The bottom-up step probes edges from the unvisited side, so it relies on
  // filter symmetry — exercised here for both built-in filters and their
  // conjunction, with the bottom-up path forced on.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_connected_random(120, 0.04, seed);
    const std::vector<bool> mask = random_mask(g.num_vertices(), 0.3, seed + 50);
    FaultPlane plane(g);
    Rng rng(seed + 900);
    for (const Edge& e : g.edges()) {
      if (rng.bernoulli(0.15)) plane.fail_edge(e.u, e.v);
    }
    engine::Workspace ws_classic, ws_dir;
    const auto check = [&](auto filter) {
      for (NodeId s = 0; s < g.num_vertices(); s += 31) {
        engine::bfs(g, s, ws_classic, filter);
        engine::bfs_dir_opt(g, s, ws_dir, filter, 1u << 30, 1u << 30);
        EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()),
                  dense_dist(ws_classic, g.num_vertices()));
      }
    };
    check(engine::DominatedEdgeFilter{&mask});
    check(engine::FaultAwareFilter{&plane});
    check(engine::BothFilters{engine::DominatedEdgeFilter{&mask},
                              engine::FaultAwareFilter{&plane}});
  }
}

TEST(Engine, DirOptBfsVisitsSameVertexSet) {
  // Visit *order* within a level may differ; the visited set and per-level
  // population may not.
  const CsrGraph g = make_random(200, 0.02, 3);
  engine::Workspace ws_classic, ws_dir;
  engine::bfs(g, 0, ws_classic, engine::AllEdges{});
  engine::bfs_dir_opt(g, 0, ws_dir, engine::AllEdges{}, 1u << 30, 1u << 30);
  ASSERT_EQ(ws_dir.frontier_size(), ws_classic.frontier_size());
  std::vector<NodeId> a(ws_classic.visit_order().begin(),
                        ws_classic.visit_order().end());
  std::vector<NodeId> b(ws_dir.visit_order().begin(), ws_dir.visit_order().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Engine, BoundedBfsStopsAtDepth) {
  const CsrGraph g = make_path(10);
  engine::Workspace ws;
  engine::bfs_bounded(g, 0, 3, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(3), 3u);
  EXPECT_EQ(ws.dist(4), kUnreachable);
}

TEST(Engine, UniteEdgesMatchesConnectedComponents) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_random(70, 0.03, seed);
    RollbackUnionFind uf(g.num_vertices());
    engine::unite_edges(g, uf, engine::AllEdges{});
    const Components comps = connected_components(g);
    EXPECT_EQ(uf.num_components(), comps.count);
    for (NodeId u = 0; u < g.num_vertices(); ++u) {
      for (NodeId v = u + 1; v < g.num_vertices(); ++v) {
        EXPECT_EQ(uf.connected(u, v), comps.label[u] == comps.label[v]);
      }
    }
  }
}

TEST(Engine, TemplatedCdfBitIdenticalToReferenceHistogram) {
  const CsrGraph g = make_connected_random(150, 0.03, 11);
  const std::vector<bool> mask = random_mask(g.num_vertices(), 0.35, 12);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < g.num_vertices(); v += 3) sources.push_back(v);

  std::vector<std::uint64_t> histogram(1, 0);
  for (const NodeId s : sources) {
    const ReferenceBfs ref = reference_bfs(
        g, s, [&mask](NodeId u, NodeId v) { return mask[u] || mask[v]; });
    for (const std::uint32_t d : ref.dist) {
      if (d == 0 || d == kUnreachable) continue;
      if (d >= histogram.size()) histogram.resize(d + 1, 0);
      ++histogram[d];
    }
  }
  const DistanceCdf via_struct =
      distance_cdf_from_sources_with(g, sources, engine::DominatedEdgeFilter{&mask});
  ASSERT_EQ(via_struct.cdf.size(), histogram.size());
  const double denom =
      static_cast<double>(sources.size()) * static_cast<double>(g.num_vertices() - 1);
  std::uint64_t running = 0;
  for (std::size_t l = 1; l < histogram.size(); ++l) {
    running += histogram[l];
    EXPECT_EQ(via_struct.cdf[l], static_cast<double>(running) / denom);  // exact
  }
  EXPECT_EQ(via_struct.reachable, via_struct.cdf.back());
}

// --- bfs_layered -------------------------------------------------------------

/// Single-layer transition admitting every edge.
constexpr auto kAllEdgesStep = [](NodeId, std::size_t, NodeId, std::uint32_t) {
  return 0u;
};

/// Two-layer parity automaton: every hop flips the layer, so state (v, p)
/// is reached iff some walk of parity p from the source ends at v.
constexpr auto kParityStep = [](NodeId, std::size_t, NodeId, std::uint32_t layer) {
  return layer ^ 1u;
};

TEST(EngineLayered, OneLayerReproducesBfsDistAndVisitOrder) {
  engine::Workspace ws_bfs, ws_layered;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = make_random(90, 0.04, seed);
    for (NodeId s = 0; s < g.num_vertices(); s += 13) {
      engine::bfs(g, s, ws_bfs, engine::AllEdges{});
      EXPECT_EQ(engine::bfs_layered(g, s, 1, ws_layered, kAllEdgesStep), kUnreachable);
      EXPECT_EQ(dense_dist(ws_layered, g.num_vertices()),
                dense_dist(ws_bfs, g.num_vertices()));
      EXPECT_EQ(visit_order(ws_layered), visit_order(ws_bfs));
    }
  }
}

TEST(EngineLayered, ParityLayersMatchWalkParity) {
  // On an even cycle every vertex has one reachable parity; on an odd cycle
  // both parities of every vertex are reachable.
  engine::Workspace ws;
  const CsrGraph even = bsr::test::make_cycle(6);
  engine::bfs_layered(even, 0, 2, ws, kParityStep);
  EXPECT_EQ(ws.frontier_size(), 6u);
  EXPECT_EQ(ws.dist(3 * 2 + 1), 3u);  // vertex 3 at odd parity
  EXPECT_FALSE(ws.visited(3 * 2 + 0));
  const CsrGraph odd = bsr::test::make_cycle(5);
  engine::bfs_layered(odd, 0, 2, ws, kParityStep);
  EXPECT_EQ(ws.frontier_size(), 10u);
  EXPECT_EQ(ws.dist(0 * 2 + 1), 5u);  // back to the source around the cycle
  EXPECT_EQ(ws.dist(2 * 2 + 1), 3u);  // 0-4-3-2
}

TEST(EngineLayered, WorkspaceReuseAcrossLayersAndSizesLeaksNoState) {
  // One workspace through a mix of layer counts and graph sizes must give
  // exactly what a fresh workspace gives for each run.
  struct Run {
    NodeId n;
    std::uint32_t layers;
    std::uint64_t seed;
  };
  const Run runs[] = {{120, 3, 1}, {15, 1, 2}, {60, 2, 3}, {200, 1, 4},
                      {40, 3, 5},  {15, 2, 6}, {120, 1, 7}};
  engine::Workspace shared;
  for (const Run& run : runs) {
    const CsrGraph g = make_random(run.n, 0.05, run.seed);
    const auto step = [layers = run.layers](NodeId u, std::size_t, NodeId v,
                                            std::uint32_t layer) {
      return (u + v + layer) % layers;  // an arbitrary deterministic automaton
    };
    engine::Workspace fresh;
    for (NodeId s = 0; s < g.num_vertices(); s += 11) {
      engine::bfs_layered(g, s, run.layers, fresh, step);
      engine::bfs_layered(g, s, run.layers, shared, step);
      const NodeId states = g.num_vertices() * run.layers;
      EXPECT_EQ(dense_dist(shared, states), dense_dist(fresh, states));
      EXPECT_EQ(visit_order(shared), visit_order(fresh));
      for (const NodeId t : visit_order(shared)) {
        EXPECT_EQ(shared.parent(t), fresh.parent(t));
      }
    }
  }
}

TEST(EngineLayered, EarlyExitReturnsFirstDiscoveredTargetState) {
  engine::Workspace ws;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = make_connected_random(70, 0.05, seed);
    const NodeId n = g.num_vertices();
    for (NodeId target = 1; target < n; target += 9) {
      // Full run: the first state of `target` in visit order.
      engine::bfs_layered(g, 0, 2, ws, kParityStep);
      NodeId first = kUnreachable;
      for (const NodeId t : ws.visit_order()) {
        if (t / 2 == target) {
          first = t;
          break;
        }
      }
      ASSERT_NE(first, kUnreachable);
      const std::uint32_t first_dist = ws.dist(first);

      const NodeId got = engine::bfs_layered(g, 0, 2, ws, kParityStep, target);
      EXPECT_EQ(got, first);
      EXPECT_EQ(ws.visit_order().back(), got);  // stopped at the discovery
      const auto path = engine::layered_path(ws, got, 2);
      ASSERT_EQ(path.size(), first_dist + 1);
      EXPECT_EQ(path.front(), 0u);
      EXPECT_EQ(path.back(), target);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
      }
    }
  }
  // A source that is its own target needs no search.
  const CsrGraph g = make_path(3);
  EXPECT_EQ(engine::bfs_layered(g, 2, 3, ws, kParityStep, 2), 6u);
  EXPECT_EQ(engine::layered_path(ws, 6, 3), std::vector<NodeId>{2});
}

TEST(EngineWorkspace, ReusableAcrossTraversalsAndGraphSizes) {
  engine::Workspace ws;
  const CsrGraph small = make_path(4);
  engine::bfs(small, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(3), 3u);
  // Larger graph: the workspace must grow, and stale small-graph state must
  // not leak into the new traversal.
  const CsrGraph big = make_path(12);
  engine::bfs(big, 11, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(0), 11u);
  EXPECT_EQ(ws.visit_order().size(), 12u);
  // Back to the small graph; distances are fresh again.
  engine::bfs(small, 3, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(0), 3u);
}

TEST(EngineWorkspace, MarkDomainIsIndependentOfTraversals) {
  engine::Workspace ws;
  ws.begin_marks(5);
  EXPECT_TRUE(ws.mark(2));
  EXPECT_FALSE(ws.mark(2));  // second mark in the same round
  const CsrGraph g = make_path(5);
  engine::bfs(g, 0, ws, engine::AllEdges{});  // traversal must not clear marks
  EXPECT_TRUE(ws.marked(2));
  EXPECT_FALSE(ws.marked(3));
  ws.begin_marks(5);
  EXPECT_FALSE(ws.marked(2));  // new round forgets
  EXPECT_TRUE(ws.mark(2));
}

TEST(EngineWorkspace, ParentChainReconstructsShortestPath) {
  const CsrGraph g = make_connected_random(40, 0.05, 21);
  const auto path = bfs_shortest_path(g, 0, 39);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 39u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
  EXPECT_EQ(path.size(), naive_bfs(g, 0)[39] + 1);
}

}  // namespace
}  // namespace bsr::graph
