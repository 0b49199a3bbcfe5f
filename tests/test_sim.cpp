#include <gtest/gtest.h>

#include "broker/verify.hpp"
#include "graph/fault_plane.hpp"
#include "graph/graph_builder.hpp"
#include "sim/demand.hpp"
#include "sim/load.hpp"
#include "sim/qos.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"

namespace bsr::sim {
namespace {

using bsr::broker::BrokerSet;
using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Rng;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

// --- demand ----------------------------------------------------------------

TEST(Demand, FlowsWellFormed) {
  const CsrGraph g = make_connected_random(30, 0.1, 1);
  Rng rng(2);
  DemandConfig config;
  config.num_flows = 200;
  const auto flows = generate_flows(g, config, rng);
  ASSERT_EQ(flows.size(), 200u);
  for (const Flow& f : flows) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_LT(f.src, g.num_vertices());
    EXPECT_LT(f.dst, g.num_vertices());
    EXPECT_GE(f.volume, config.volume_min * (1 - 1e-9));
    EXPECT_LE(f.volume, config.volume_max * (1 + 1e-9));
  }
}

TEST(Demand, DegreeWeightingPrefersHubs) {
  const CsrGraph g = make_star(50);
  Rng rng(3);
  DemandConfig config;
  config.num_flows = 2000;
  const auto flows = generate_flows(g, config, rng);
  std::size_t center_endpoints = 0;
  for (const Flow& f : flows) {
    center_endpoints += (f.src == 0) + (f.dst == 0);
  }
  // Center holds ~half the degree mass (uniform draws would give ~4 %).
  EXPECT_GT(center_endpoints, flows.size() / 3);
}

TEST(Demand, UniformModeIsFlat) {
  const CsrGraph g = make_star(50);
  Rng rng(4);
  DemandConfig config;
  config.num_flows = 2000;
  config.degree_weighted = false;
  const auto flows = generate_flows(g, config, rng);
  std::size_t center_endpoints = 0;
  for (const Flow& f : flows) center_endpoints += (f.src == 0) + (f.dst == 0);
  EXPECT_LT(center_endpoints, 300u);
}

TEST(Demand, RejectsDegenerateInputs) {
  Rng rng(5);
  EXPECT_THROW(generate_flows(make_path(1), {}, rng), std::invalid_argument);
  DemandConfig bad;
  bad.volume_min = 0.0;
  EXPECT_THROW(generate_flows(make_path(3), bad, rng), std::invalid_argument);
}

// --- router ------------------------------------------------------------------

TEST(Router, FreeRouteIsShortestPath) {
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  Router router(g, b);
  const Route route = router.route_free(0, 4);
  ASSERT_TRUE(route.reachable());
  EXPECT_EQ(route.hops(), 4u);
  EXPECT_EQ(route.path.front(), 0u);
  EXPECT_EQ(route.path.back(), 4u);
}

TEST(Router, DominatedRouteIsDominatingPath) {
  const CsrGraph g = make_connected_random(40, 0.1, 6);
  BrokerSet b(g.num_vertices());
  for (NodeId v = 0; v < 10; ++v) b.add(v);
  Router router(g, b);
  for (NodeId dst = 10; dst < 30; ++dst) {
    const Route route = router.route_dominated(35, dst);
    if (!route.reachable()) continue;
    EXPECT_TRUE(bsr::broker::is_dominating_path(g, b, route.path));
  }
}

TEST(Router, DominatedUnreachableWithoutBrokers) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);  // empty
  Router router(g, b);
  EXPECT_FALSE(router.route_dominated(0, 3).reachable());
  // Same endpoints are trivially reachable.
  EXPECT_TRUE(router.route_dominated(2, 2).reachable());
}

TEST(Router, StretchNonNegative) {
  const CsrGraph g = make_connected_random(30, 0.12, 7);
  BrokerSet b(g.num_vertices());
  for (NodeId v = 0; v < 6; ++v) b.add(v * 5);
  Router router(g, b);
  for (NodeId u = 0; u < 10; ++u) {
    const auto s = router.stretch(u, 29 - u);
    if (s.has_value()) {
      EXPECT_GE(*s, 0u);
    }
  }
}

TEST(Router, StretchNulloptWhenDominatedUnreachable) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(0);  // dominates only edge 0-1
  Router router(g, b);
  EXPECT_FALSE(router.stretch(0, 3).has_value());
}

/// 102 vertices with edges 0-100 and 100-101: the broker-set-mismatch
/// reproducer (a 4-vertex BrokerSet read at vertex 100 overflows its mask).
CsrGraph far_edges_graph() {
  bsr::graph::GraphBuilder b(102);
  b.add_edge(0, 100);
  b.add_edge(100, 101);
  return b.build();
}

TEST(Router, RejectsBrokerSetOfAnotherGraph) {
  const CsrGraph g = far_edges_graph();
  BrokerSet small(4);
  small.add(0);
  EXPECT_THROW(Router(g, small), std::invalid_argument);
  EXPECT_THROW(Router(g, BrokerSet(103)), std::invalid_argument);
  BrokerSet sized(g.num_vertices());
  sized.add(0);
  Router router(g, sized);
  EXPECT_FALSE(router.route_dominated(0, 101).reachable());  // 100-101 undominated
  EXPECT_EQ(router.route_dominated(0, 100).hops(), 1u);
}

TEST(Router, RejectsFaultPlaneOfAnotherGraph) {
  const CsrGraph g = make_path(5);
  const CsrGraph other = make_path(5);
  BrokerSet b(5);
  const bsr::graph::FaultPlane foreign(other);
  EXPECT_THROW(Router(g, b, &foreign), std::invalid_argument);
  Router router(g, b);
  EXPECT_THROW(router.set_fault_plane(&foreign), std::invalid_argument);
  const bsr::graph::FaultPlane own(g);
  router.set_fault_plane(&own);
  router.set_fault_plane(nullptr);
  HealthView view;
  view.routable.assign(4, true);
  EXPECT_THROW(router.set_health_view(&view), std::invalid_argument);
}

TEST(Router, RejectsEndpointsOutOfRange) {
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(2);
  Router router(g, b);
  HealthView view;
  view.routable.assign(5, true);
  router.set_health_view(&view);
  for (const auto& [s, t] : {std::pair<NodeId, NodeId>{0, 5}, {5, 0}, {7, 7}}) {
    EXPECT_THROW((void)router.route_free(s, t), std::out_of_range);
    EXPECT_THROW((void)router.route_dominated(s, t), std::out_of_range);
    EXPECT_THROW((void)router.route_with_degradation(s, t, {}), std::out_of_range);
    EXPECT_THROW((void)router.route_with_health(s, t), std::out_of_range);
    EXPECT_THROW((void)router.stretch(s, t), std::out_of_range);
  }
  EXPECT_EQ(router.route_free(0, 4).hops(), 4u);
}

// --- qos ---------------------------------------------------------------------

TEST(Qos, FullyDominatedPathAlwaysSucceeds) {
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(1);
  b.add(3);
  const std::vector<NodeId> path{0, 1, 2, 3, 4};
  EXPECT_EQ(undominated_hops(b, path), 0u);
  EXPECT_DOUBLE_EQ(path_qos_success(QosModel{}, b, path), 1.0);
}

TEST(Qos, UnsupervisedHopsCompound) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);  // no brokers: all 3 hops unsupervised
  const std::vector<NodeId> path{0, 1, 2, 3};
  QosModel model;
  model.unsupervised_hop_success = 0.8;
  EXPECT_EQ(undominated_hops(b, path), 3u);
  EXPECT_NEAR(path_qos_success(model, b, path), 0.8 * 0.8 * 0.8, 1e-12);
}

TEST(Qos, TrivialPathSucceeds) {
  BrokerSet b(3);
  EXPECT_DOUBLE_EQ(path_qos_success(QosModel{}, b, {}), 1.0);
  const std::vector<NodeId> single{1};
  EXPECT_DOUBLE_EQ(path_qos_success(QosModel{}, b, single), 1.0);
}

TEST(Qos, ImperfectSlaModel) {
  BrokerSet b(3);
  b.add(1);
  const std::vector<NodeId> path{0, 1, 2};
  QosModel model;
  model.supervised_hop_success = 0.95;
  EXPECT_NEAR(path_qos_success(model, b, path), 0.95 * 0.95, 1e-12);
}

// --- load ----------------------------------------------------------------------

TEST(Load, CreditsTransitVerticesOnly) {
  LoadTracker tracker(5);
  Route route;
  route.path = {0, 1, 2, 3};
  tracker.add_route(route, 2.0);
  EXPECT_DOUBLE_EQ(tracker.load()[0], 0.0);
  EXPECT_DOUBLE_EQ(tracker.load()[1], 2.0);
  EXPECT_DOUBLE_EQ(tracker.load()[2], 2.0);
  EXPECT_DOUBLE_EQ(tracker.load()[3], 0.0);
}

TEST(Load, ShortRoutesCarryNoTransit) {
  LoadTracker tracker(3);
  Route direct;
  direct.path = {0, 1};
  tracker.add_route(direct, 5.0);
  for (const double l : tracker.load()) EXPECT_DOUBLE_EQ(l, 0.0);
}

TEST(Load, GiniZeroForEqualLoads) {
  LoadTracker tracker(4);
  Route r1, r2;
  r1.path = {0, 1, 2};
  r2.path = {0, 2, 1};  // not a real path; load accounting only
  tracker.add_route(r1, 1.0);
  tracker.add_route(r2, 1.0);
  BrokerSet brokers(4);
  brokers.add(1);
  brokers.add(2);
  const auto summary = tracker.summarize(brokers);
  EXPECT_NEAR(summary.gini, 0.0, 1e-12);
  EXPECT_EQ(summary.active_brokers, 2u);
  EXPECT_DOUBLE_EQ(summary.total, 2.0);
}

TEST(Load, GiniDetectsConcentration) {
  LoadTracker tracker(5);
  Route hot;
  hot.path = {0, 1, 4};
  for (int i = 0; i < 10; ++i) tracker.add_route(hot, 1.0);
  BrokerSet brokers(5);
  brokers.add(1);
  brokers.add(2);
  brokers.add(3);
  const auto summary = tracker.summarize(brokers);
  EXPECT_GT(summary.gini, 0.5);
  EXPECT_EQ(summary.active_brokers, 1u);
  EXPECT_DOUBLE_EQ(summary.max, 10.0);
}

TEST(Load, EmptyBrokerSetSummary) {
  LoadTracker tracker(3);
  const auto summary = tracker.summarize(BrokerSet(3));
  EXPECT_DOUBLE_EQ(summary.total, 0.0);
  EXPECT_EQ(summary.active_brokers, 0u);
}

}  // namespace
}  // namespace bsr::sim
