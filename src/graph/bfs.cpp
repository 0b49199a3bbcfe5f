#include "graph/bfs.hpp"

#include <algorithm>

#include "graph/check.hpp"
#include "graph/engine.hpp"

namespace bsr::graph {

std::vector<NodeId> bfs_shortest_path(const CsrGraph& g, NodeId source, NodeId target) {
  BSR_DCHECK(source < g.num_vertices() && target < g.num_vertices());
  if (source == target) return {source};
  auto& ws = engine::tls_workspace();
  engine::bfs(g, source, ws, engine::AllEdges{});
  if (!ws.visited(target)) return {};
  std::vector<NodeId> path{target};
  for (NodeId w = target; w != source; w = ws.parent(w)) path.push_back(ws.parent(w));
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace bsr::graph
