#include "topology/relationships.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/engine.hpp"

namespace bsr::topology {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::engine::kRejectLayer;

namespace engine = bsr::graph::engine;

EdgeRelations::EdgeRelations(const CsrGraph& g, std::span<const Edge> edges,
                             std::span<const EdgeRel> rels) {
  if (edges.size() != rels.size()) {
    throw std::invalid_argument("EdgeRelations: edges/rels size mismatch");
  }
  if (edges.size() != g.num_edges()) {
    throw std::invalid_argument("EdgeRelations: edge count does not match graph");
  }
  const NodeId n = g.num_vertices();
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + g.degree(v);
  adjacency_.reserve(offsets_.back());
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    adjacency_.insert(adjacency_.end(), nbrs.begin(), nbrs.end());
  }
  rel_by_slot_.assign(offsets_.back(), EdgeRel::kPeer);

  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= e.v) throw std::invalid_argument("EdgeRelations: edges must be canonical");
    if (!g.has_edge(e.u, e.v)) {
      throw std::invalid_argument("EdgeRelations: edge not present in graph");
    }
    rel_by_slot_[slot(e.u, e.v)] = rels[i];
    rel_by_slot_[slot(e.v, e.u)] = rels[i];
  }
}

std::size_t EdgeRelations::slot(NodeId u, NodeId v) const {
  if (u + std::size_t{1} >= offsets_.size()) {
    throw std::invalid_argument("EdgeRelations: vertex out of range");
  }
  const auto begin = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  const auto it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) {
    throw std::invalid_argument("EdgeRelations: not an edge");
  }
  return static_cast<std::size_t>(it - adjacency_.begin());
}

EdgeRel EdgeRelations::rel_canonical(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  return rel_by_slot_[slot(u, v)];
}

bool EdgeRelations::is_provider_of(NodeId provider, NodeId customer) const {
  const EdgeRel rel = rel_canonical(provider, customer);
  if (rel == EdgeRel::kPeer) return false;
  const bool canonical_u_is_provider = (rel == EdgeRel::kUProviderOfV);
  const NodeId canonical_u = std::min(provider, customer);
  return canonical_u_is_provider == (provider == canonical_u);
}

bool EdgeRelations::is_peer(NodeId u, NodeId v) const {
  return rel_canonical(u, v) == EdgeRel::kPeer;
}

double EdgeRelations::peer_fraction() const {
  if (rel_by_slot_.empty()) return 0.0;
  std::size_t peers = 0;
  for (const EdgeRel rel : rel_by_slot_) {
    if (rel == EdgeRel::kPeer) ++peers;
  }
  return static_cast<double>(peers) / static_cast<double>(rel_by_slot_.size());
}

namespace {

// Phases of a valley-free walk, the layers of its state-expanded BFS:
//   0 = still climbing (only c2p hops so far)
//   1 = crossed the single allowed peer hop
//   2 = descending (one or more p2c hops taken)
// Allowed transitions from phase p over edge u->v:
//   c2p (v is u's provider): only from phase 0, stay 0
//   peer:                    from phase 0, go to 1
//   p2c (v is u's customer): from any phase, go to 2
//   override edge:           from any phase, keep phase
constexpr std::uint32_t kPhases = 3;

/// Valley-free transition over EdgeRelations' slot-aligned label rows. It
/// keeps the row of the vertex being expanded (the kernel offers every
/// neighbor of one popped state in turn), so an edge costs one label load
/// instead of re-deriving the row — that shorter chain feeds the
/// hard-to-predict branch on the label (~10% of a short valley_free_path
/// query on the scale-1.0 graph).
class ValleyFreeStep {
 public:
  explicit ValleyFreeStep(const EdgeRelations& rels) : rels_(&rels) {}

  std::uint32_t operator()(NodeId u, std::size_t slot, NodeId v, std::uint32_t phase) {
    if (u != row_vertex_) {
      row_vertex_ = u;
      row_ = rels_->canonical_rels_of(u).data();
    }
    const EdgeRel rel = row_[slot];
    if (rel == EdgeRel::kPeer) return phase == 0 ? 1 : kRejectLayer;
    if (EdgeRelations::rel_means_v_provides_u(rel, u, v)) {
      return phase == 0 ? 0 : kRejectLayer;
    }
    return 2;  // p2c hop allowed from any phase
  }

 private:
  const EdgeRelations* rels_;
  NodeId row_vertex_ = kUnreachable;
  const EdgeRel* row_ = nullptr;
};

}  // namespace

std::vector<std::uint32_t> valley_free_distances(
    const CsrGraph& g, const EdgeRelations& rels, NodeId source,
    const std::function<bool(NodeId, NodeId)>& edge_ok,
    const EdgeOverrideFn& override_edge) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("valley_free_distances: source out of range");
  }
  auto& ws = engine::tls_workspace();
  engine::bfs_layered(g, source, kPhases, ws,
                      [&, step = ValleyFreeStep(rels)](NodeId u, std::size_t slot,
                                                       NodeId v,
                                                       std::uint32_t phase) mutable {
                        if (edge_ok && !edge_ok(u, v)) return kRejectLayer;
                        if (override_edge && override_edge(u, v)) return phase;
                        return step(u, slot, v, phase);
                      });
  // Visit order is BFS order, so the first state of v seen is its distance.
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  for (const NodeId state : ws.visit_order()) {
    std::uint32_t& d = dist[state / kPhases];
    if (d == kUnreachable) d = ws.dist_unchecked(state);
  }
  return dist;
}

std::vector<NodeId> valley_free_path(const CsrGraph& g, const EdgeRelations& rels,
                                     NodeId src, NodeId dst) {
  if (src >= g.num_vertices() || dst >= g.num_vertices()) return {};
  if (src == dst) return {src};
  auto& ws = engine::tls_workspace();
  // The first state of dst discovered ends a shortest admissible path.
  const NodeId goal =
      engine::bfs_layered(g, src, kPhases, ws, ValleyFreeStep(rels), dst);
  if (goal == kUnreachable) return {};
  return engine::layered_path(ws, goal, kPhases);
}

std::vector<EdgeRel> infer_relationships_by_degree(const CsrGraph& g,
                                                   std::span<const Edge> edges,
                                                   double peer_ratio) {
  if (peer_ratio < 1.0) {
    throw std::invalid_argument("infer_relationships_by_degree: ratio must be >= 1");
  }
  std::vector<EdgeRel> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    const double du = g.degree(e.u);
    const double dv = g.degree(e.v);
    if (du >= dv * peer_ratio) {
      out.push_back(EdgeRel::kUProviderOfV);
    } else if (dv >= du * peer_ratio) {
      out.push_back(EdgeRel::kVProviderOfU);
    } else {
      out.push_back(EdgeRel::kPeer);
    }
  }
  return out;
}

}  // namespace bsr::topology
