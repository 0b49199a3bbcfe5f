// Breadth-first search conveniences on CsrGraph.
//
// The AS graph is unweighted, so shortest hop distances are BFS distances.
// Traversals themselves live in the engine (graph/engine.hpp): engine::bfs
// and friends take an inlinable filter struct and a reusable Workspace.
// This header keeps the one-shot shortest-path query.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"

namespace bsr::graph {

/// Shortest path (as a vertex sequence source..target) via BFS parent
/// pointers; empty if unreachable. O(V + E) per call.
[[nodiscard]] std::vector<NodeId> bfs_shortest_path(const CsrGraph& g, NodeId source,
                                                    NodeId target);

}  // namespace bsr::graph
