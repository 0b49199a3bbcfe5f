// Static-dispatch traversal engine.
//
// Every traversal in the system runs through the function templates below.
// They take *filter structs* (or, for bfs_layered, a transition functor)
// whose body is known at instantiation time and folds into the scan loop,
// so a dominated-subgraph BFS costs the same as an unfiltered BFS plus two
// bitmask loads — no indirect call per edge relaxation.
//
// Filters implement
//     bool operator()(NodeId u, std::size_t slot, NodeId v) const
// where `slot` indexes v within g.neighbors(u) — that is what lets
// FaultAwareFilter answer link-state queries in O(1) via
// FaultPlane::edge_up_at(u, slot) instead of an O(log d) edge lookup.
//
// Determinism contract (see docs/ENGINE.md): every kernel visits vertices in
// a fixed order — queue order for BFS, ascending (u, slot) order for edge
// scans — so dist arrays, component labels, greedy tie-breaks, and double
// accumulation orders are reproducible, and invariant under BSR_THREADS
// (parallel reductions are integer-only and merged in shard order).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "graph/check.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/workspace.hpp"
#include "obs/stats.hpp"

namespace bsr::graph::engine {

// --- filter structs --------------------------------------------------------

/// Admits every structural edge.
struct AllEdges {
  bool operator()(NodeId, std::size_t, NodeId) const noexcept { return true; }
};

/// Admits edge {u, v} iff at least one endpoint is a broker — the dominated
/// subgraph G_B of the paper. Holds the broker membership bitmap by pointer
/// so the filter is trivially copyable and register-resident.
struct DominatedEdgeFilter {
  const std::vector<bool>* broker_mask = nullptr;

  bool operator()(NodeId u, std::size_t, NodeId v) const noexcept {
    BSR_DCHECK(broker_mask != nullptr);
    BSR_DCHECK(u < broker_mask->size() && v < broker_mask->size());
    return (*broker_mask)[u] || (*broker_mask)[v];
  }
};

/// Admits edge {u, v} iff both endpoints and the link itself are up.
struct FaultAwareFilter {
  const FaultPlane* faults = nullptr;

  bool operator()(NodeId u, std::size_t slot, NodeId v) const noexcept {
    BSR_DCHECK(faults != nullptr);
    return faults->vertex_ok(u) && faults->vertex_ok(v) &&
           faults->edge_up_at(u, slot);
  }
};

/// Conjunction of two filters; A is evaluated first.
template <class A, class B>
struct BothFilters {
  A a;
  B b;

  bool operator()(NodeId u, std::size_t slot, NodeId v) const noexcept {
    return a(u, slot, v) && b(u, slot, v);
  }
};

// --- traversal kernels -----------------------------------------------------

/// BFS from `source` over edges admitted by `admit`, writing dist/visit-order
/// into `ws`. FIFO queue, neighbors scanned in ascending adjacency order.
template <class Filter>
void bfs(const CsrGraph& g, NodeId source, Workspace& ws, Filter admit) {
  BSR_DCHECK(source < g.num_vertices());
  ws.begin(g.num_vertices());
  ws.discover(source, 0);
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    const NodeId u = ws.frontier_at(head);
    const std::uint32_t du = ws.dist_unchecked(u);
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (!ws.visited(v) && admit(u, i, v)) ws.discover(v, du + 1, u);
    }
    // Accumulates into the workspace, not a stack local (a spilled local
    // measured ~1% more wall time), and after the scan rather than before
    // it: placed ahead of the inner loop the store-add tips the register
    // allocator into spilling the frontier pointer, which puts an L1 reload
    // on the per-vertex dependency chain (~3% wall). Here the loop bound
    // (neigh.size()) is still live and pressure is at its lowest.
    BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
  }
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

/// BFS truncated at distance `max_depth` (vertices at dist == max_depth are
/// discovered but not expanded).
template <class Filter>
void bfs_bounded(const CsrGraph& g, NodeId source, std::uint32_t max_depth,
                 Workspace& ws, Filter admit) {
  BSR_DCHECK(source < g.num_vertices());
  ws.begin(g.num_vertices());
  ws.discover(source, 0);
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    const NodeId u = ws.frontier_at(head);
    const std::uint32_t du = ws.dist_unchecked(u);
    if (du >= max_depth) continue;
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (!ws.visited(v) && admit(u, i, v)) ws.discover(v, du + 1, u);
    }
    BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
  }
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

/// Direction-optimizing BFS (top-down <-> bottom-up switching).
///
/// Classic BFS scans every edge out of the frontier; when the frontier is a
/// large fraction of the graph (which on the internet topology happens by
/// level 2-3), most of those scans hit already-visited vertices. The
/// bottom-up step inverts the loop: every *unvisited* vertex scans its own
/// adjacency for a frontier parent and stops at the first hit, so a level
/// that would touch most of E costs only one successful probe per vertex.
/// Heuristic (Beamer et al.): switch top-down -> bottom-up when the
/// frontier's out-degree exceeds 1/alpha of the unexplored degree, and back
/// once the frontier thins below n/beta vertices. Unvisited vertices are
/// enumerated through a dense bitset (Workspace::visited_bits) so whole
/// 64-vertex blocks of visited regions are skipped per word.
///
/// Requires a *symmetric* filter: admit(u, slot of v in u, v) must equal
/// admit(v, slot of u in v, u) for every structural edge — true for
/// AllEdges, DominatedEdgeFilter, FaultAwareFilter, and conjunctions
/// thereof.
///
/// Guarantees the exact distances and reachable set of bfs(); visit order
/// *within a level* may differ (bottom-up levels discover in ascending
/// vertex order) and parents are level-equivalent rather than identical, so
/// callers comparing against bfs() must compare distance-derived outputs.
template <class Filter>
void bfs_dir_opt(const CsrGraph& g, NodeId source, Workspace& ws, Filter admit,
                 std::uint32_t alpha = 15, std::uint32_t beta = 18) {
  BSR_DCHECK(source < g.num_vertices());
  BSR_DCHECK(alpha > 0 && beta > 0);
  const NodeId n = g.num_vertices();
  ws.begin(n);
  auto& visited = ws.visited_bits(n);
  auto& frontier = ws.frontier_bits(n);
  const std::size_t words = visited.size();

  ws.discover(source, 0);
  visited[source >> 6] |= std::uint64_t{1} << (source & 63);

  // Control state for the switch heuristic: degree mass on the current
  // frontier vs degree mass not yet explored. Both are exact integers, so
  // the top-down/bottom-up schedule is deterministic.
  std::uint64_t frontier_degree = g.degree(source);
  std::uint64_t unexplored_degree = 2 * g.num_edges() - frontier_degree;
  std::size_t level_begin = 0;
  std::uint32_t depth = 0;
  bool bottom_up = false;

  while (level_begin < ws.frontier_size()) {
    const std::size_t level_end = ws.frontier_size();
    if (!bottom_up) {
      if (frontier_degree > unexplored_degree / alpha) bottom_up = true;
    } else {
      if (level_end - level_begin < n / beta) bottom_up = false;
    }
    std::uint64_t next_degree = 0;
    if (bottom_up) {
      std::fill(frontier.begin(), frontier.end(), 0);
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const NodeId u = ws.frontier_at(i);
        frontier[u >> 6] |= std::uint64_t{1} << (u & 63);
      }
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t todo = ~visited[w];
        if (w == words - 1 && (n & 63) != 0) {
          todo &= (std::uint64_t{1} << (n & 63)) - 1;  // mask padding bits
        }
        while (todo != 0) {
          const auto v =
              static_cast<NodeId>((w << 6) + std::countr_zero(todo));
          todo &= todo - 1;
          const auto neigh = g.neighbors(v);
          for (std::size_t i = 0; i < neigh.size(); ++i) {
            const NodeId u = neigh[i];
            BSR_STATS_ONLY(++ws.stats_edges_scanned;)
            if (((frontier[u >> 6] >> (u & 63)) & 1) != 0 && admit(v, i, u)) {
              ws.discover(v, depth + 1, u);
              visited[v >> 6] |= std::uint64_t{1} << (v & 63);
              next_degree += neigh.size();
              break;
            }
          }
        }
      }
      BSR_COUNT(EngineBfsBottomUpLevels);
    } else {
      for (std::size_t head = level_begin; head < level_end; ++head) {
        const NodeId u = ws.frontier_at(head);
        const auto neigh = g.neighbors(u);
        for (std::size_t i = 0; i < neigh.size(); ++i) {
          const NodeId v = neigh[i];
          if (((visited[v >> 6] >> (v & 63)) & 1) == 0 && admit(u, i, v)) {
            ws.discover(v, depth + 1, u);
            visited[v >> 6] |= std::uint64_t{1} << (v & 63);
            next_degree += g.degree(v);
          }
        }
        BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
      }
    }
    frontier_degree = next_degree;
    unexplored_degree -= next_degree;
    level_begin = level_end;
    ++depth;
  }
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

// --- layered-state BFS ------------------------------------------------------

/// Transition verdict: the edge may not be taken from this layer.
inline constexpr std::uint32_t kRejectLayer = kUnreachable;

namespace detail {

/// n / d for a runtime divisor 2 <= d and any 32-bit n, as one multiply-high
/// with the precomputed c = ceil(2^64 / d) (Lemire, Kaser & Kurz, "Faster
/// remainder by direct computation", 2019). A hardware divide per popped
/// state measured ~25% of a valley-free path query on the scale-1.0 graph
/// in a build that did not inline the scan into its caller.
class DivideBy {
 public:
  explicit DivideBy(std::uint32_t d) : magic_(~std::uint64_t{0} / d + 1) {
    BSR_DCHECK(d >= 2);
  }
  [[nodiscard]] std::uint32_t operator()(std::uint32_t n) const noexcept {
    __extension__ using Uint128 = unsigned __int128;
    return static_cast<std::uint32_t>((static_cast<Uint128>(magic_) * n) >> 64);
  }

 private:
  std::uint64_t magic_;
};

// Flattened: the transition and every Workspace store inline into the scan
// loop whatever else the including translation unit instantiates (GCC's
// unit-growth limit otherwise outlines Workspace::discover or the
// transition in TUs with several kernels: a call per edge or discovery,
// measured ~15% of an early-exit point-to-point query).
template <bool kSingleLayer, class Transition>
[[gnu::flatten]] NodeId bfs_layered_scan(const CsrGraph& g, NodeId source,
                                         std::uint32_t layers, Workspace& ws,
                                         Transition step, NodeId target) {
  const NodeId start = source * layers;
  const DivideBy vertex_of(kSingleLayer ? 2 : layers);  // unused with one layer
  ws.discover(start, 0, start);
  if (source == target) return start;
  // FIFO order pops whole levels in turn, so the distance of the popped
  // state is tracked from level boundaries instead of loaded per pop.
  std::uint32_t depth = 0;
  std::size_t level_end = 1;
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    if (head == level_end) {
      ++depth;
      level_end = ws.frontier_size();
    }
    const NodeId s = ws.frontier_at(head);
    const NodeId u = kSingleLayer ? s : vertex_of(s);
    const std::uint32_t layer = kSingleLayer ? 0 : s - u * layers;
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      NodeId t = v;
      if constexpr (kSingleLayer) {
        if (ws.visited(v) || step(u, i, v, 0u) == kRejectLayer) continue;
      } else {
        const std::uint32_t next = step(u, i, v, layer);
        if (next == kRejectLayer) continue;
        BSR_DCHECK(next < layers);
        t = v * layers + next;
        if (ws.visited(t)) continue;
      }
      ws.discover(t, depth + 1, s);
      if (v == target) return t;
    }
  }
  return kUnreachable;
}

}  // namespace detail

/// BFS over (vertex, layer) states — the product of the graph with a small
/// automaton (valley-free phases, heal budgets). The state id of (v, layer)
/// is v * layers + layer; the traversal starts at (source, 0).
///
/// `step(u, slot, v, layer)` returns the layer that state (u, layer) reaches
/// over the edge to v = g.neighbors(u)[slot], or kRejectLayer if the edge
/// may not be taken from that layer. It is called once per (popped state,
/// neighbor) pair, in FIFO queue order and ascending adjacency order — with
/// one layer, only for neighbors not yet visited.
///
/// State dist/parent/visit order live in `ws`, indexed by state id, so a
/// traversal costs O(states reached) and never clears or allocates
/// O(V * layers) once the workspace has grown to that size. Parents are
/// state ids; the root is its own parent (see layered_path).
///
/// With a `target` vertex, the search stops at the first discovery of any
/// state of `target` and returns that state; otherwise (or if the target is
/// unreachable) it runs to exhaustion and returns kUnreachable. With one
/// layer this is exactly engine::bfs (same dist and visit order) without the
/// traversal counters.
template <class Transition>
NodeId bfs_layered(const CsrGraph& g, NodeId source, std::uint32_t layers,
                   Workspace& ws, Transition step, NodeId target = kUnreachable) {
  BSR_DCHECK(source < g.num_vertices());
  BSR_DCHECK(layers > 0);
  const std::uint64_t states = std::uint64_t{g.num_vertices()} * layers;
  if (states >= kUnreachable) {
    throw std::length_error("bfs_layered: vertex * layer state space too large");
  }
  ws.begin(static_cast<NodeId>(states));
  if (layers == 1) {
    return detail::bfs_layered_scan<true>(g, source, 1, ws, step, target);
  }
  return detail::bfs_layered_scan<false>(g, source, layers, ws, step, target);
}

/// Vertex path from the traversal root to `state` (both inclusive), read
/// off the parent chain a bfs_layered run with `layers` layers left in `ws`.
[[nodiscard]] std::vector<NodeId> layered_path(const Workspace& ws, NodeId state,
                                               std::uint32_t layers);

// --- bidirectional point-to-point BFS ----------------------------------------

namespace detail {

/// Expands one whole level [begin, end) of `mine`'s frontier at `depth`,
/// discovering unvisited admitted neighbors at depth + 1 and summing their
/// degrees into `next_degree`. Stops and returns true at the first admitted
/// edge into a vertex `other` has visited: the two search fronts met.
/// `mine` and `other` are the Workspace (forward side) and its BackDomain,
/// in either role.
template <class Mine, class Other, class Filter>
bool bidirectional_expand(const CsrGraph& g, Mine& mine, const Other& other,
                          std::size_t begin, std::size_t end, std::uint32_t depth,
                          Filter admit, std::uint64_t& next_degree) {
  for (std::size_t head = begin; head < end; ++head) {
    const NodeId u = mine.frontier_at(head);
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (mine.visited(v) || !admit(u, i, v)) continue;
      if (other.visited(v)) return true;
      mine.discover(v, depth + 1);
      next_degree += g.degree(v);
    }
  }
  return false;
}

/// The first admitted neighbor of u at backward depth r - 1, or kUnreachable.
template <class Filter>
NodeId first_toward(const CsrGraph& g, const BackDomain& back, NodeId u,
                    std::uint32_t r, Filter admit) {
  const auto neigh = g.neighbors(u);
  for (std::size_t i = 0; i < neigh.size(); ++i) {
    const NodeId w = neigh[i];
    if (back.dist(w) == r - 1 && admit(u, i, w)) return w;
  }
  return kUnreachable;
}

/// The adjacency-slot-first shortest path once the fronts met with forward
/// levels 0..a and backward levels 0..b complete (so dist = a + b + 1).
/// A depth-first search from the source over the forward level DAG, children
/// in slot order, finds the first depth-a vertex with an edge to backward
/// depth b; vertices it entered and left are dead, held in the mark domain.
/// A first-slot descent down the backward levels finishes the path.
template <class Filter>
std::vector<NodeId> bidirectional_path(const CsrGraph& g, NodeId src,
                                       std::uint32_t a, std::uint32_t b,
                                       Workspace& ws, Filter admit) {
  const BackDomain& back = ws.back();
  ws.begin_marks(g.num_vertices());
  std::vector<NodeId> path;
  path.reserve(std::size_t{a} + b + 2);
  path.push_back(src);
  std::vector<std::size_t> next_slot(std::size_t{a} + 1, 0);  // per DFS depth
  for (;;) {
    BSR_DCHECK(!path.empty());  // the fronts met, so some prefix succeeds
    const NodeId u = path.back();
    const auto j = static_cast<std::uint32_t>(path.size() - 1);
    if (j == a) {
      const NodeId w = first_toward(g, back, u, b + 1, admit);
      if (w != kUnreachable) {
        path.push_back(w);
        break;
      }
      path.pop_back();
      continue;
    }
    const auto neigh = g.neighbors(u);
    std::size_t i = next_slot[j];
    while (i < neigh.size()) {
      const NodeId v = neigh[i];
      if (ws.dist(v) == j + 1 && admit(u, i, v) && ws.mark(v)) break;
      ++i;
    }
    if (i == neigh.size()) {
      path.pop_back();
      continue;
    }
    next_slot[j] = i + 1;
    next_slot[j + 1] = 0;
    path.push_back(neigh[i]);
  }
  for (std::uint32_t r = b; r > 0; --r) {
    path.push_back(first_toward(g, back, path.back(), r, admit));
    BSR_DCHECK(path.back() != kUnreachable);
  }
  return path;
}

}  // namespace detail

/// Shortest src -> dst path over edges admitted by a *symmetric* filter (the
/// bfs_dir_opt contract), searched from both ends; empty if unreachable,
/// {src} if src == dst.
///
/// Level-synchronous: each round expands one whole level of the side whose
/// frontier has the smaller degree sum, and the search stops at the first
/// edge between the two fronts, or when a side's new level is empty
/// (unreachable). The path returned is the one engine::bfs from src would
/// record as dst's parent chain — the shortest path whose sequence of
/// adjacency slots is lexicographically first — so it does not depend on
/// which side expanded when (docs/ENGINE.md has the argument).
///
/// Forward dist/visit order live in the traversal domain of `ws`, backward
/// ones in ws.back(), and the path rebuild uses its mark domain: no call
/// clears or allocates O(V) once the workspace has grown to the graph.
template <class Filter>
std::vector<NodeId> bfs_bidirectional(const CsrGraph& g, NodeId src, NodeId dst,
                                      Workspace& ws, Filter admit) {
  BSR_DCHECK(src < g.num_vertices() && dst < g.num_vertices());
  if (src == dst) return {src};
  BackDomain& back = ws.back();
  ws.begin(g.num_vertices());
  back.begin(g.num_vertices());
  ws.discover(src, 0);
  back.discover(dst, 0);
  // Per side: [begin, frontier_size()) is its deepest complete level, at
  // depth a (forward) or b (backward), whose degrees sum to *_degree.
  std::size_t f_begin = 0;
  std::size_t b_begin = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t f_degree = g.degree(src);
  std::uint64_t b_degree = g.degree(dst);
  for (;;) {
    std::uint64_t next_degree = 0;
    if (f_degree <= b_degree) {
      const std::size_t end = ws.frontier_size();
      if (detail::bidirectional_expand(g, ws, back, f_begin, end, a, admit,
                                       next_degree)) {
        break;
      }
      if (end == ws.frontier_size()) return {};
      f_begin = end;
      f_degree = next_degree;
      ++a;
    } else {
      const std::size_t end = back.frontier_size();
      if (detail::bidirectional_expand(g, back, ws, b_begin, end, b, admit,
                                       next_degree)) {
        break;
      }
      if (end == back.frontier_size()) return {};
      b_begin = end;
      b_degree = next_degree;
      ++b;
    }
  }
  return detail::bidirectional_path(g, src, a, b, ws, admit);
}

/// Unions the endpoints of every admitted edge into `uf`. Edges are scanned
/// in canonical ascending (u, v) order with u < v — the same order every
/// legacy union-find construction loop used, so root identities match.
/// Works with both UnionFind and RollbackUnionFind.
template <class UF, class Filter>
void unite_edges(const CsrGraph& g, UF& uf, Filter admit) {
  const NodeId n = g.num_vertices();
  BSR_STATS_ONLY(std::uint64_t scans = 0; std::uint64_t admitted = 0;)
  for (NodeId u = 0; u < n; ++u) {
    const auto neigh = g.neighbors(u);
    BSR_STATS_ONLY(scans += neigh.size();)
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (u < v && admit(u, i, v)) {
        BSR_STATS_ONLY(++admitted;)
        uf.unite(u, v);
      }
    }
  }
  BSR_COUNT_N(EngineUniteEdgeScans, scans);
  BSR_COUNT_N(EngineUniteAdmitted, admitted);
}

/// Unions `center` with every neighbor reachable through an admitted edge —
/// the incremental "add one broker" step of greedy sweeps.
template <class UF, class Filter>
void unite_star(const CsrGraph& g, UF& uf, NodeId center, Filter admit) {
  const auto neigh = g.neighbors(center);
  BSR_STATS_ONLY(std::uint64_t admitted = 0;)
  for (std::size_t i = 0; i < neigh.size(); ++i) {
    const NodeId v = neigh[i];
    if (admit(center, i, v)) {
      BSR_STATS_ONLY(++admitted;)
      uf.unite(center, v);
    }
  }
  BSR_COUNT_N(EngineUniteEdgeScans, neigh.size());
  BSR_COUNT_N(EngineUniteAdmitted, admitted);
}

// --- parallel driver -------------------------------------------------------

/// Effective worker count: BSR_THREADS env var (clamped to [1, 256]) unless
/// overridden by set_num_threads(). 1 (the default) means fully serial.
[[nodiscard]] int num_threads();

/// Overrides the worker count for this process; n <= 0 restores the
/// environment-derived value. Intended for tests and benchmarks.
void set_num_threads(int n);

/// Number of shards to split `count` independent work items into:
/// min(num_threads(), count), at least 1.
[[nodiscard]] std::size_t plan_shards(std::size_t count);

/// Runs body(shard, begin, end) for each of plan_shards(count) contiguous
/// blocks [begin, end) of [0, count). Shard 0 runs on the calling thread;
/// the rest on std::threads. The partition depends only on `count` and the
/// shard count — never on timing — so any reduction merged in shard order
/// is deterministic.
void for_each_shard(
    std::size_t count,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body);

/// Per-thread scratch workspace for one-shot convenience wrappers. Grows to
/// the largest graph seen on this thread and is reused across calls.
[[nodiscard]] Workspace& tls_workspace();

}  // namespace bsr::graph::engine
