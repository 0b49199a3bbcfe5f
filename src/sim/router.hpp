// Route computation: BGP-like shortest paths vs broker-dominated paths.
//
// The simulator contrasts two planes:
//   * the "free" plane — shortest AS path, as BGP's hop-count-ish decision
//     process would produce (no QoS control beyond the first hop);
//   * the "brokered" plane — shortest B-dominating path, where every hop is
//     supervised by a broker endpoint and thus QoS-controllable.
//
// A Router may additionally be bound to a graph::FaultPlane; all routes then
// avoid failed links and vertices, and route_with_degradation() reports
// *how* service degraded when the brokered plane loses a pair:
//   kDominated    — brokered route on the damaged graph, full QoS;
//   kDegraded     — brokered route that crosses up to `heal_attempts` failed
//                   links (the operator expedites those repairs);
//   kFreeFallback — only the unsupervised free plane still connects the pair;
//   kUnreachable  — nothing does.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/workspace.hpp"
#include "sim/health.hpp"

namespace bsr::sim {

struct Route {
  std::vector<bsr::graph::NodeId> path;  // src..dst; empty = unreachable
  [[nodiscard]] bool reachable() const noexcept { return !path.empty(); }
  [[nodiscard]] std::uint32_t hops() const noexcept {
    return path.empty() ? 0 : static_cast<std::uint32_t>(path.size() - 1);
  }
};

/// Service tier a pair ends up on, best first.
enum class RouteTier : std::uint8_t {
  kDominated,     // brokered plane intact
  kDegraded,      // brokered plane with <= n expedited link heals
  kFreeFallback,  // unsupervised BGP-like plane only
  kUnreachable,
};

[[nodiscard]] const char* to_string(RouteTier tier) noexcept;

/// How far the router may degrade before declaring a pair lost.
struct DegradationPolicy {
  /// Failed links a kDegraded route may cross (expedited heals per route).
  std::uint32_t heal_attempts = 2;
  /// Whether the unsupervised free plane may serve as a last resort.
  bool allow_free_fallback = true;
};

struct TieredRoute {
  Route route;
  RouteTier tier = RouteTier::kUnreachable;
  /// Failed links the route crosses (> 0 only for kDegraded).
  std::uint32_t healed_links = 0;
};

/// What actually happened to a pair routed on a stale HealthView. The view
/// is *belief*: the route is computed as if every routable broker and every
/// link were up, then checked against the fault plane (ground truth).
enum class HealthOutcome : std::uint8_t {
  kOk,           // believed route exists and every hop is actually usable
  kMisrouted,    // believed route crosses a dead broker/link — traffic blackholes
  kShunned,      // view offers nothing, but the oracle still connects the pair
                 // (healthy capacity falsely quarantined)
  kUnreachable,  // neither belief nor oracle connects the pair
};

[[nodiscard]] const char* to_string(HealthOutcome outcome) noexcept;

struct HealthRouteResult {
  Route route;  // the believed route (empty when the view offers none)
  HealthOutcome outcome = HealthOutcome::kUnreachable;
  /// Hops of the believed route that cross a down link or endpoint
  /// (> 0 only for kMisrouted).
  std::uint32_t dead_hops = 0;
};

/// Reusable router bound to one graph + broker set (+ optional fault plane).
/// Plain routes run engine::bfs_bidirectional and return the path a FIFO BFS
/// from src records. Every route entry point throws std::out_of_range for an
/// endpoint that is not a vertex of the graph.
class Router {
 public:
  /// Throws std::invalid_argument unless `brokers` covers exactly the
  /// vertices of `g`.
  Router(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers);

  /// Fault-aware router: all routes respect the plane's failures. The plane
  /// must be bound to `g` (std::invalid_argument otherwise) and outlive the
  /// router; nullptr detaches.
  Router(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
         const bsr::graph::FaultPlane* faults);

  /// Throws std::invalid_argument for a plane bound to another graph.
  void set_fault_plane(const bsr::graph::FaultPlane* faults);

  /// Binds a (possibly stale) health view for route_with_health(); nullptr
  /// detaches. The view must cover this graph (std::invalid_argument
  /// otherwise) and outlive the router. The oracle entry points
  /// (route_free/route_dominated/route_with_degradation) are unaffected —
  /// they keep answering from ground truth.
  void set_health_view(const HealthView* view);

  [[nodiscard]] const bsr::graph::CsrGraph& graph() const noexcept { return *graph_; }

  /// Shortest path in the full graph (the BGP-like reference).
  [[nodiscard]] Route route_free(bsr::graph::NodeId src, bsr::graph::NodeId dst);

  /// Shortest B-dominating path (every hop has a broker endpoint).
  [[nodiscard]] Route route_dominated(bsr::graph::NodeId src, bsr::graph::NodeId dst);

  /// Graceful degradation: dominated, then dominated-with-heals, then free
  /// fallback, reporting which tier served the pair. Without a fault plane
  /// this collapses to kDominated / kFreeFallback / kUnreachable.
  [[nodiscard]] TieredRoute route_with_degradation(bsr::graph::NodeId src,
                                                   bsr::graph::NodeId dst,
                                                   const DegradationPolicy& policy);

  /// Routes `src -> dst` believing the bound health view: the dominated BFS
  /// only uses edges with a *routable* broker endpoint and assumes every
  /// link is up (the view knows nothing about links). The result reports how
  /// belief compared to ground truth — misrouted through dead capacity,
  /// falsely shunned, or correct. Requires set_health_view().
  [[nodiscard]] HealthRouteResult route_with_health(bsr::graph::NodeId src,
                                                    bsr::graph::NodeId dst);

  /// Hop inflation of the brokered route vs the free route for one pair;
  /// nullopt when either plane is unreachable.
  [[nodiscard]] std::optional<std::uint32_t> stretch(bsr::graph::NodeId src,
                                                     bsr::graph::NodeId dst);

 private:
  /// Throws std::out_of_range unless both endpoints are vertices of the graph.
  void check_endpoints(bsr::graph::NodeId src, bsr::graph::NodeId dst) const;
  Route route_impl(bsr::graph::NodeId src, bsr::graph::NodeId dst, bool dominated);
  Route route_healed(bsr::graph::NodeId src, bsr::graph::NodeId dst,
                     std::uint32_t max_heals, std::uint32_t& healed_links);

  const bsr::graph::CsrGraph* graph_;
  const bsr::broker::BrokerSet* brokers_;
  const bsr::graph::FaultPlane* faults_ = nullptr;
  const HealthView* health_view_ = nullptr;
  /// Epoch-stamped; holds both fronts of the bidirectional routes, and
  /// (vertex, heals) states for route_healed, so no call clears or allocates
  /// O(V) memory.
  bsr::graph::engine::Workspace ws_;
};

/// Tier composition over sampled (src != dst) pairs — the operator's
/// degradation dashboard.
struct TierShares {
  std::size_t pairs = 0;
  std::size_t dominated = 0;
  std::size_t degraded = 0;
  std::size_t free_fallback = 0;
  std::size_t unreachable = 0;

  [[nodiscard]] double fraction(std::size_t count) const noexcept {
    return pairs == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(pairs);
  }
};

[[nodiscard]] TierShares sample_tier_shares(Router& router, bsr::graph::Rng& rng,
                                            std::size_t num_pairs,
                                            const DegradationPolicy& policy);

/// Outcome composition of stale-view routing over sampled (src != dst)
/// pairs — misrouting and false-quarantine cost against the oracle.
struct HealthShares {
  std::size_t pairs = 0;
  std::size_t ok = 0;
  std::size_t misrouted = 0;
  std::size_t shunned = 0;
  std::size_t unreachable = 0;
  std::uint64_t dead_hops = 0;  // total dead hops across misrouted pairs

  [[nodiscard]] double fraction(std::size_t count) const noexcept {
    return pairs == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(pairs);
  }
};

/// Requires the router to have both a fault plane (ground truth) and a
/// health view (belief) bound.
[[nodiscard]] HealthShares sample_health_shares(Router& router, bsr::graph::Rng& rng,
                                                std::size_t num_pairs);

}  // namespace bsr::sim
