#include "sim/router.hpp"

#include <stdexcept>
#include <string>

#include "graph/check.hpp"
#include "graph/engine.hpp"
#include "graph/sampling.hpp"
#include "obs/journal.hpp"
#include "obs/stats.hpp"

namespace bsr::sim {

using bsr::graph::kUnreachable;
using bsr::graph::NodeId;

const char* to_string(RouteTier tier) noexcept {
  switch (tier) {
    case RouteTier::kDominated: return "dominated";
    case RouteTier::kDegraded: return "degraded";
    case RouteTier::kFreeFallback: return "free-fallback";
    case RouteTier::kUnreachable: return "unreachable";
  }
  return "?";
}

const char* to_string(HealthOutcome outcome) noexcept {
  switch (outcome) {
    case HealthOutcome::kOk: return "ok";
    case HealthOutcome::kMisrouted: return "misrouted";
    case HealthOutcome::kShunned: return "shunned";
    case HealthOutcome::kUnreachable: return "unreachable";
  }
  return "?";
}

Router::Router(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers)
    : Router(g, brokers, nullptr) {}

Router::Router(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
               const bsr::graph::FaultPlane* faults)
    : graph_(&g), brokers_(&brokers), ws_(g.num_vertices()) {
  if (brokers.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument(
        "Router: broker set covers " + std::to_string(brokers.num_vertices()) +
        " vertices but the graph has " + std::to_string(g.num_vertices()));
  }
  set_fault_plane(faults);
}

void Router::set_fault_plane(const bsr::graph::FaultPlane* faults) {
  if (faults != nullptr && &faults->graph() != graph_) {
    throw std::invalid_argument("Router: fault plane is bound to another graph");
  }
  faults_ = faults;
}

void Router::set_health_view(const HealthView* view) {
  if (view != nullptr && view->routable.size() != graph_->num_vertices()) {
    throw std::invalid_argument("Router: health view covers another graph");
  }
  health_view_ = view;
}

void Router::check_endpoints(NodeId src, NodeId dst) const {
  if (src >= graph_->num_vertices() || dst >= graph_->num_vertices()) {
    throw std::out_of_range("Router: endpoint out of range");
  }
}

Route Router::route_impl(NodeId src, NodeId dst, bool dominated) {
  check_endpoints(src, dst);
  if (faults_ != nullptr && (!faults_->vertex_ok(src) || !faults_->vertex_ok(dst))) {
    return {};  // a down endpoint cannot originate or terminate traffic
  }
  // Static four-way dispatch: the filter inlines into the scan loop, so the
  // plain free-route case pays nothing for broker/fault support.
  namespace engine = bsr::graph::engine;
  const auto scan = [&](auto admit) {
    return Route{engine::bfs_bidirectional(*graph_, src, dst, ws_, admit)};
  };
  const engine::DominatedEdgeFilter dom{&brokers_->mask()};
  const engine::FaultAwareFilter up{faults_};
  if (dominated) {
    return faults_ != nullptr ? scan(engine::BothFilters{dom, up}) : scan(dom);
  }
  return faults_ != nullptr ? scan(up) : scan(engine::AllEdges{});
}

Route Router::route_healed(NodeId src, NodeId dst, std::uint32_t max_heals,
                           std::uint32_t& healed_links) {
  // BFS over (vertex, heals-used) states: dominated edges only, vertices
  // must be up, and crossing a *failed* dominated link consumes one heal.
  // First arrival at dst (any heal count) is the min-hop degraded route.
  namespace engine = bsr::graph::engine;
  healed_links = 0;
  Route route;
  const std::uint32_t layers = max_heals + 1;
  BSR_GAUGE_MAX(RouterStateHighWater,
                static_cast<std::size_t>(graph_->num_vertices()) * layers);
  const NodeId goal = engine::bfs_layered(
      *graph_, src, layers, ws_,
      [this, max_heals](NodeId u, std::size_t i, NodeId v, std::uint32_t heals) {
        if (!brokers_->dominates_edge(u, v) || !faults_->vertex_ok(v)) {
          return engine::kRejectLayer;
        }
        if (faults_->edge_up_at(u, i)) return heals;
        return heals == max_heals ? engine::kRejectLayer : heals + 1;
      },
      dst);
  if (goal == kUnreachable) return route;  // unreachable within the budget
  healed_links = goal % layers;
  route.path = engine::layered_path(ws_, goal, layers);
  return route;
}

Route Router::route_free(NodeId src, NodeId dst) {
  return route_impl(src, dst, /*dominated=*/false);
}

Route Router::route_dominated(NodeId src, NodeId dst) {
  return route_impl(src, dst, /*dominated=*/true);
}

TieredRoute Router::route_with_degradation(NodeId src, NodeId dst,
                                           const DegradationPolicy& policy) {
  check_endpoints(src, dst);
  BSR_COUNT(RouterRoutes);
  TieredRoute out;
  out.route = route_dominated(src, dst);
  if (out.route.reachable()) {
    out.tier = RouteTier::kDominated;
    BSR_COUNT(RouterTierDominated);
    BSR_HISTO(RouterHops, out.route.hops());
    return out;
  }
  if (faults_ != nullptr && !faults_->pristine() && policy.heal_attempts > 0 &&
      faults_->vertex_ok(src) && faults_->vertex_ok(dst) && src != dst) {
    out.route = route_healed(src, dst, policy.heal_attempts, out.healed_links);
    if (out.route.reachable()) {
      out.tier = RouteTier::kDegraded;
      BSR_COUNT(RouterTierDegraded);
      BSR_HISTO(RouterHops, out.route.hops());
      return out;
    }
    out.healed_links = 0;
  }
  if (policy.allow_free_fallback) {
    out.route = route_free(src, dst);
    if (out.route.reachable()) {
      out.tier = RouteTier::kFreeFallback;
      BSR_COUNT(RouterTierFallback);
      BSR_HISTO(RouterHops, out.route.hops());
      return out;
    }
  }
  out.tier = RouteTier::kUnreachable;
  BSR_COUNT(RouterTierUnreachable);
  return out;
}

HealthRouteResult Router::route_with_health(NodeId src, NodeId dst) {
  BSR_DCHECK(health_view_ != nullptr);
  check_endpoints(src, dst);
  BSR_COUNT(RouterRoutes);
  HealthRouteResult out;
  if (src == dst) {
    out.route.path = {src};
    out.outcome = HealthOutcome::kOk;
    return out;
  }
  // Belief: dominated BFS restricted to edges with a *routable* broker
  // endpoint, with no fault consultation — the control plane knows only what
  // the view says. The routable bitmap is already broker-AND-healthy, so the
  // plain dominated filter over it is exactly the believed plane.
  out.route.path = bsr::graph::engine::bfs_bidirectional(
      *graph_, src, dst, ws_,
      bsr::graph::engine::DominatedEdgeFilter{&health_view_->routable});
  if (out.route.reachable()) {
    if (faults_ != nullptr) {
      for (std::size_t i = 0; i + 1 < out.route.path.size(); ++i) {
        const NodeId u = out.route.path[i];
        const NodeId v = out.route.path[i + 1];
        if (!faults_->vertex_ok(u) || !faults_->vertex_ok(v) ||
            !faults_->edge_ok(u, v)) {
          ++out.dead_hops;
        }
      }
    }
    BSR_COUNT_N(RouterDeadHops, out.dead_hops);
    BSR_HISTO(RouterHops, out.route.hops());
    out.outcome = out.dead_hops > 0 ? HealthOutcome::kMisrouted : HealthOutcome::kOk;
    // Verdict events carry the pair packed (src << 32) | dst; the router has
    // no clock of its own, so records land at the journal clock.
    if (out.outcome == HealthOutcome::kMisrouted) {
      BSR_EVENT_NOW(RouteMisrouted,
                    (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
    } else {
      BSR_EVENT_NOW(RouteOk, (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
    }
    return out;
  }
  // Belief found nothing: ask the oracle whether real capacity was shunned.
  out.outcome = route_dominated(src, dst).reachable() ? HealthOutcome::kShunned
                                                      : HealthOutcome::kUnreachable;
  if (out.outcome == HealthOutcome::kShunned) {
    BSR_EVENT_NOW(RouteShunned, (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
  } else {
    BSR_EVENT_NOW(RouteUnreachable,
                  (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
  }
  return out;
}

std::optional<std::uint32_t> Router::stretch(NodeId src, NodeId dst) {
  const Route free_route = route_free(src, dst);
  if (!free_route.reachable()) return std::nullopt;
  const Route dominated_route = route_dominated(src, dst);
  if (!dominated_route.reachable()) return std::nullopt;
  return dominated_route.hops() - free_route.hops();
}

TierShares sample_tier_shares(Router& router, bsr::graph::Rng& rng,
                              std::size_t num_pairs,
                              const DegradationPolicy& policy) {
  TierShares shares;
  const auto pairs =
      bsr::graph::sample_pairs(rng, router.graph().num_vertices(), num_pairs);
  for (const auto& [src, dst] : pairs) {
    const TieredRoute r = router.route_with_degradation(src, dst, policy);
    ++shares.pairs;
    switch (r.tier) {
      case RouteTier::kDominated: ++shares.dominated; break;
      case RouteTier::kDegraded: ++shares.degraded; break;
      case RouteTier::kFreeFallback: ++shares.free_fallback; break;
      case RouteTier::kUnreachable: ++shares.unreachable; break;
    }
  }
  return shares;
}

HealthShares sample_health_shares(Router& router, bsr::graph::Rng& rng,
                                  std::size_t num_pairs) {
  HealthShares shares;
  const auto pairs =
      bsr::graph::sample_pairs(rng, router.graph().num_vertices(), num_pairs);
  for (const auto& [src, dst] : pairs) {
    const HealthRouteResult r = router.route_with_health(src, dst);
    ++shares.pairs;
    shares.dead_hops += r.dead_hops;
    switch (r.outcome) {
      case HealthOutcome::kOk: ++shares.ok; break;
      case HealthOutcome::kMisrouted: ++shares.misrouted; break;
      case HealthOutcome::kShunned: ++shares.shunned; break;
      case HealthOutcome::kUnreachable: ++shares.unreachable; break;
    }
  }
  return shares;
}

}  // namespace bsr::sim
