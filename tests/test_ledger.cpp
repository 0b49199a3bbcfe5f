#include "econ/ledger.hpp"

#include <gtest/gtest.h>

#include "broker/maxsg.hpp"
#include "graph/graph_builder.hpp"
#include "topology/internet.hpp"
#include "test_util.hpp"

namespace bsr::econ {
namespace {

using bsr::broker::BrokerSet;
using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

sim::Flow flow_of(NodeId src, NodeId dst, double volume) {
  sim::Flow f;
  f.src = src;
  f.dst = dst;
  f.volume = volume;
  return f;
}

TEST(Ledger, SingleBrokeredFlowAccounting) {
  // Star with broker center: path 1-0-2, one broker transit hop, no
  // employees.
  const CsrGraph g = make_star(5);
  BrokerSet b(5);
  b.add(0);
  const std::vector<sim::Flow> flows{flow_of(1, 2, 10.0)};
  LedgerConfig config;
  config.customer_price = 1.0;
  config.transit_cost = 0.1;
  const auto ledger = settle_flows(g, b, flows, config);
  EXPECT_EQ(ledger.flows_routed, 1u);
  EXPECT_DOUBLE_EQ(ledger.customer_payments, 20.0);  // both ends pay
  EXPECT_DOUBLE_EQ(ledger.employee_payouts, 0.0);
  EXPECT_DOUBLE_EQ(ledger.broker_transit_cost, 1.0);
  EXPECT_DOUBLE_EQ(ledger.coalition_profit, 19.0);
  EXPECT_DOUBLE_EQ(ledger.broker_revenue[0], 19.0);
  EXPECT_TRUE(ledger.balanced());
}

TEST(Ledger, EmployeeHopsArePaid) {
  // Path 0-1-2-3-4 with brokers {1, 3}: the dominating route 0..4 transits
  // the non-broker 2 — the hired employee (Fig. 6's AS 5).
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(1);
  b.add(3);
  const std::vector<sim::Flow> flows{flow_of(0, 4, 2.0)};
  LedgerConfig config;
  config.customer_price = 1.0;
  config.employee_price = 0.4;
  config.transit_cost = 0.05;
  const auto ledger = settle_flows(g, b, flows, config);
  EXPECT_EQ(ledger.flows_routed, 1u);
  EXPECT_EQ(ledger.employee_hops, 1u);
  EXPECT_DOUBLE_EQ(ledger.customer_payments, 4.0);
  EXPECT_DOUBLE_EQ(ledger.employee_payouts, 0.8);
  // Transit brokers: 1 and 3 -> 2 hops * 0.05 * 2.0 volume.
  EXPECT_DOUBLE_EQ(ledger.broker_transit_cost, 0.2);
  EXPECT_TRUE(ledger.balanced());
  // Profit split proportional to transit volume: brokers 1 and 3 equal.
  EXPECT_DOUBLE_EQ(ledger.broker_revenue[1], ledger.broker_revenue[3]);
  EXPECT_GT(ledger.broker_revenue[1], 0.0);
}

TEST(Ledger, UnroutableFlowsCounted) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(0);  // dominates only edge 0-1
  const std::vector<sim::Flow> flows{flow_of(0, 3, 1.0), flow_of(0, 1, 1.0)};
  const auto ledger = settle_flows(g, b, flows);
  EXPECT_EQ(ledger.flows_unroutable, 1u);
  EXPECT_EQ(ledger.flows_routed, 1u);
  EXPECT_TRUE(ledger.balanced());
}

TEST(Ledger, BooksBalanceOnRandomWorkloads) {
  const CsrGraph g = make_connected_random(80, 0.07, 11);
  const auto brokers = bsr::broker::maxsg(g, 12).brokers;
  bsr::graph::Rng rng(12);
  sim::DemandConfig demand;
  demand.num_flows = 400;
  const auto flows = sim::generate_flows(g, demand, rng);
  const auto ledger = settle_flows(g, brokers, flows);
  EXPECT_TRUE(ledger.balanced(1e-6));
  double distributed = 0.0;
  for (const double r : ledger.broker_revenue) distributed += r;
  EXPECT_NEAR(distributed, ledger.coalition_profit, 1e-6);
  EXPECT_GT(ledger.flows_routed, 0u);
}

TEST(Ledger, RejectsBadPrices) {
  const CsrGraph g = make_star(4);
  BrokerSet b(4);
  LedgerConfig bad;
  bad.customer_price = 0.0;
  EXPECT_THROW(settle_flows(g, b, {}, bad), std::invalid_argument);
  bad = LedgerConfig{};
  bad.transit_cost = -1.0;
  EXPECT_THROW(settle_flows(g, b, {}, bad), std::invalid_argument);
}

TEST(Ledger, DirectBrokerEdgeHasNoTransit) {
  // Adjacent pair with a broker endpoint: no transit nodes at all.
  const CsrGraph g = make_path(3);
  BrokerSet b(3);
  b.add(1);
  const std::vector<sim::Flow> flows{flow_of(1, 2, 5.0)};
  const auto ledger = settle_flows(g, b, flows);
  EXPECT_DOUBLE_EQ(ledger.broker_transit_cost, 0.0);
  EXPECT_DOUBLE_EQ(ledger.coalition_profit, ledger.customer_payments);
  EXPECT_TRUE(ledger.balanced());
}

TEST(Ledger, RejectsBrokerSetOfAnotherGraph) {
  // A 4-vertex broker set on a 102-vertex graph used to read past its mask
  // at vertex 100 while routing 0 -> 101.
  bsr::graph::GraphBuilder builder(102);
  builder.add_edge(0, 100);
  builder.add_edge(100, 101);
  const CsrGraph g = builder.build();
  BrokerSet b(4);
  b.add(0);
  const std::vector<sim::Flow> flows{flow_of(0, 101, 1.0)};
  EXPECT_THROW((void)settle_flows(g, b, flows), std::invalid_argument);
}

TEST(Ledger, RejectsFlowEndpointsOutOfRange) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  const std::vector<sim::Flow> flows{flow_of(0, 4, 1.0)};
  EXPECT_THROW((void)settle_flows(g, b, flows), std::out_of_range);
}

TEST(Ledger, GoldenSettlementOnInternetTopology) {
  // Fixed scale-0.05 topology, MaxSG prefixes 5/50/177 (the paper's
  // 100/1,000/3,540 scaled). Which of several equal-length dominated paths a
  // flow takes decides employee hops and which brokers earn, so these pins
  // hold route identity, not only route length: they are those of the FIFO
  // BFS parent chain for every flow.
  auto cfg = bsr::topology::InternetConfig{}.scaled(0.05);
  cfg.seed = 20170614;
  const auto topo = bsr::topology::make_internet(cfg);
  const CsrGraph& g = topo.graph;
  ASSERT_EQ(g.num_vertices(), 2604u);
  bsr::graph::Rng rng(19);
  sim::DemandConfig demand;
  demand.num_flows = 1500;
  const auto flows = sim::generate_flows(g, demand, rng);
  const auto full = bsr::broker::maxsg(g, 177).brokers;
  ASSERT_EQ(full.size(), 177u);

  struct Golden {
    std::size_t k;
    std::size_t routed;
    std::size_t employee_hops;
    double payments;
    double payouts;
    double transit_cost;
    double revenue_checksum;  // sum of (v + 1) * broker_revenue[v]
    std::size_t earning_brokers;
  };
  const Golden golden[] = {
      {5, 1079, 0, 10667.423728942464, 0.0, 300.1652872793116,
       6000158.9473245908, 5},
      {50, 1475, 1, 13745.404995098937, 0.54350691579231025, 368.51600557239186,
       4153827.3300667154, 48},
      {177, 1500, 6, 13917.618309949825, 9.9294514854179781, 373.38002874553825,
       2728153.8922303785, 107},
  };
  for (const Golden& want : golden) {
    SCOPED_TRACE("prefix " + std::to_string(want.k));
    const auto ledger = settle_flows(g, full.prefix(want.k), flows);
    EXPECT_EQ(ledger.flows_routed, want.routed);
    EXPECT_EQ(ledger.flows_unroutable, flows.size() - want.routed);
    EXPECT_EQ(ledger.employee_hops, want.employee_hops);
    EXPECT_EQ(ledger.customer_payments, want.payments);
    EXPECT_EQ(ledger.employee_payouts, want.payouts);
    EXPECT_EQ(ledger.broker_transit_cost, want.transit_cost);
    double checksum = 0.0;
    std::size_t earning = 0;
    for (std::size_t v = 0; v < ledger.broker_revenue.size(); ++v) {
      checksum += static_cast<double>(v + 1) * ledger.broker_revenue[v];
      earning += ledger.broker_revenue[v] > 0.0 ? 1 : 0;
    }
    EXPECT_EQ(checksum, want.revenue_checksum);
    EXPECT_EQ(earning, want.earning_brokers);
    EXPECT_TRUE(ledger.balanced());
  }
}

}  // namespace
}  // namespace bsr::econ
