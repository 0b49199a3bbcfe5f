#include "stages.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "broker/dominated.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/maxsg.hpp"
#include "broker/mcbg_approx.hpp"
#include "broker/path_length.hpp"
#include "broker/verify.hpp"
#include "econ/bargaining.hpp"
#include "econ/competition.hpp"
#include "econ/ledger.hpp"
#include "econ/stackelberg.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/sampling.hpp"
#include "sim/churn.hpp"
#include "sim/health.hpp"
#include "sim/route_service.hpp"
#include "sim/router.hpp"

namespace pipebench {

namespace {

using bsr::broker::BrokerSet;
using bsr::graph::kUnreachable;
using bsr::graph::Rng;
using bsr::sim::AnswerStatus;
using bsr::sim::RouteAnswer;
using bsr::sim::RouteService;

/// Fixed-point image of a double for the integer digest.
std::uint64_t fixed(double x) {
  return static_cast<std::uint64_t>(std::llround(x * 1e9));
}

void add_cdf(Digest& d, const bsr::graph::DistanceCdf& cdf) {
  d.add(cdf.sources_used);
  d.add(cdf.cdf.size());
  for (const double x : cdf.cdf) d.add(fixed(x));
}

bool monotone_cdf(const bsr::graph::DistanceCdf& cdf) {
  for (std::size_t l = 1; l < cdf.cdf.size(); ++l) {
    if (cdf.cdf[l] < cdf.cdf[l - 1]) return false;
  }
  return cdf.reachable >= 0.0 && cdf.reachable <= 1.0;
}

/// Runs a correctness audit: timed into audit_s and, traced, into the
/// bench.audit span, so it is visible but outside every end-to-end metric.
template <class Fn>
void audit(Recorder& rec, PassResult& out, Fn&& fn) {
  std::vector<double>* series = rec.collecting();
  rec.collect(nullptr);
  out.audit_s += rec.call("bench.audit", std::forward<Fn>(fn));
  rec.collect(series);
}

std::vector<bsr::econ::CustomerParams> make_customers(std::size_t count, Rng& rng) {
  std::vector<bsr::econ::CustomerParams> customers(count);
  for (bsr::econ::CustomerParams& p : customers) {
    p.v_scale = 0.8 + 0.4 * rng.uniform01();
    p.v_curvature = 4.0;
    p.a0 = 0.05 + 0.1 * rng.uniform01();
    p.a_hat = 0.3 + 0.6 * rng.uniform01();
    p.p_peak = 0.25;
  }
  return customers;
}

}  // namespace

// --- paper pipeline -----------------------------------------------------------

void run_pipeline(const Setup& in, const PipelineConfig& cfg, std::uint64_t seed,
                  Recorder& rec, Checks& checks, PassResult& out,
                  std::vector<BrokerSet>& sets) {
  const bsr::topology::InternetTopology& topo = in.topo;
  const CsrGraph& g = topo.graph;
  const NodeId n = g.num_vertices();
  Digest& digest = out.digest;

  // Degree-based relationship inference, scored against ground truth.
  std::uint64_t agree = 0;
  std::uint64_t edge_count = 0;
  rec.call("topology.infer_relationships", [&] {
    const std::vector<bsr::graph::Edge> edges = g.edges();
    const auto inferred = bsr::topology::infer_relationships_by_degree(g, edges);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      agree += inferred[i] == topo.relations.rel_canonical(edges[i].u, edges[i].v);
    }
    edge_count = edges.size();
  });
  out.outcomes["topology.rel_agree"] += static_cast<double>(agree);
  out.outcomes["topology.rel_edges"] += static_cast<double>(edge_count);
  digest.add(agree);

  // Selection.
  bsr::broker::MaxSgResult maxsg;
  rec.call("broker.maxsg", [&] { maxsg = bsr::broker::maxsg(g, cfg.maxsg_k); });
  bsr::broker::GreedyMcbResult greedy;
  rec.call("broker.greedy_mcb",
           [&] { greedy = bsr::broker::greedy_mcb(g, cfg.greedy_k); });
  bsr::broker::McbgOptions mcbg_options;
  mcbg_options.max_roots = 16;
  bsr::broker::McbgResult mcbg;
  rec.call("broker.mcbg",
           [&] { mcbg = bsr::broker::mcbg_approx(g, cfg.mcbg_k, mcbg_options); });
  digest.add_members(maxsg.brokers);
  digest.add_members(greedy.brokers);
  digest.add(greedy.coverage);
  digest.add_members(mcbg.brokers);
  digest.add(mcbg.stitching);

  sets.clear();
  const std::size_t all = maxsg.brokers.size();
  sets.push_back(maxsg.brokers.prefix(std::min<std::size_t>(cfg.prefix_small, all)));
  sets.push_back(maxsg.brokers.prefix(std::min<std::size_t>(cfg.prefix_mid, all)));
  sets.push_back(maxsg.brokers);

  // Dominated-subgraph evaluation at each prefix.
  std::vector<double> saturated(sets.size(), 0.0);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const BrokerSet& b = sets[i];
    rec.call("broker.saturated",
             [&] { saturated[i] = bsr::broker::saturated_connectivity(g, b); });
    Rng lhop_rng(derive_seed(seed, 100 + i));
    bsr::graph::DistanceCdf cdf;
    rec.call("broker.lhop_cdf", [&] {
      cdf = bsr::broker::dominated_distance_cdf(g, b, lhop_rng, cfg.lhop_sources);
    });
    Rng path_rng(derive_seed(seed, 200 + i));
    bsr::broker::PathLengthComparison paths;
    rec.call("broker.path_lengths", [&] {
      paths = bsr::broker::compare_path_lengths(g, b, path_rng, cfg.path_sources);
    });
    digest.add(fixed(saturated[i]));
    add_cdf(digest, cdf);
    add_cdf(digest, paths.free_paths);
    add_cdf(digest, paths.dominated_paths);

    audit(rec, out, [&] {
      const std::vector<NodeId> label = reference_components(g, b.mask());
      std::vector<std::uint64_t> size(n, 0);
      for (NodeId v = 0; v < n; ++v) ++size[label[v]];
      std::uint64_t connected = 0;
      std::uint64_t largest = 0;
      for (const std::uint64_t s : size) {
        if (s > 1) connected += s * (s - 1) / 2;
        largest = std::max(largest, s);
      }
      const double expected = static_cast<double>(connected) /
                              (static_cast<double>(n) * (n - 1) / 2.0);
      checks.check(std::abs(saturated[i] - expected) <= 1e-9,
                   "saturated_connectivity_reference");
      checks.check(monotone_cdf(cdf) && monotone_cdf(paths.free_paths) &&
                       monotone_cdf(paths.dominated_paths),
                   "distance_cdf_monotone");
      if (i + 1 == sets.size()) {
        checks.check(largest == maxsg.final_component, "maxsg_component_reference");
      }
    });
  }

  // Valley-free policy connectivity over the mid prefix, with a seeded share
  // of inter-broker links exempted from policy (Fig. 5b).
  const BrokerSet& vf_set = sets[1];
  const std::function<bool(NodeId, NodeId)> edge_ok = [&vf_set](NodeId u, NodeId v) {
    return vf_set.contains(u) || vf_set.contains(v);
  };
  Rng vf_rng(derive_seed(seed, 300));
  const std::vector<NodeId> sources = bsr::graph::sample_distinct(
      vf_rng, n, static_cast<NodeId>(std::min<std::size_t>(cfg.vf_sources, n)));
  const std::uint64_t salt = derive_seed(seed, 301);
  for (const double fraction : {0.1, 0.3}) {
    const bsr::topology::EdgeOverrideFn override_edge =
        [&vf_set, fraction, salt](NodeId u, NodeId v) {
          if (!vf_set.contains(u) || !vf_set.contains(v)) return false;
          if (u > v) std::swap(u, v);
          std::uint64_t state = salt ^ ((static_cast<std::uint64_t>(u) << 32) | v);
          const double coin =
              static_cast<double>(bsr::graph::splitmix64(state) >> 11) * 0x1.0p-53;
          return coin < fraction;
        };
    for (const NodeId src : sources) {
      std::vector<std::uint32_t> dist;
      rec.call("topology.valley_free", [&] {
        dist = bsr::topology::valley_free_distances(g, topo.relations, src, edge_ok,
                                                    override_edge);
      });
      std::uint64_t reached = 0;
      for (NodeId v = 0; v < n; ++v) reached += v != src && dist[v] != kUnreachable;
      out.outcomes["topology.vf_sources"] += 1;
      out.outcomes["topology.vf_reached"] += static_cast<double>(reached);
      out.outcomes["topology.vf_pairs"] += static_cast<double>(n - 1);
      digest.add(reached);
    }
  }

  // Settlement over a small gravity demand on the mid prefix.
  run_settle(g, std::span(&sets[1], 1), in.demand, rec, checks, out);

  // Economics: bargaining sweep, Stackelberg game, duopoly competition.
  rec.call("econ.bargain", [&] {
    for (const double price : {0.05, 0.2, 0.5, 1.0, 2.0}) {
      bsr::econ::BargainingConfig config;
      config.broker_price = price;
      const bsr::econ::BargainingSolution s = bsr::econ::solve_bargaining(config);
      digest.add(s.feasible ? fixed(s.price) : 0);
    }
  });
  Rng econ_rng(derive_seed(seed, 400));
  bsr::econ::StackelbergConfig game;
  game.customers = make_customers(cfg.stackelberg_customers, econ_rng);
  bsr::econ::StackelbergEquilibrium eq;
  rec.call("econ.stackelberg", [&] { eq = bsr::econ::solve_stackelberg(game); });
  bsr::econ::Duopoly duopoly;
  duopoly.coverage_a = saturated.back();
  duopoly.coverage_b = saturated.front();
  duopoly.customers = make_customers(cfg.compete_customers, econ_rng);
  bsr::econ::DuopolyOutcome split;
  rec.call("econ.compete", [&] { split = bsr::econ::compete(duopoly, cfg.compete_rounds); });
  out.outcomes["econ.compete_rounds"] += static_cast<double>(split.rounds);
  out.outcomes["econ.compete_converged"] += split.converged ? 1.0 : 0.0;
  out.outcomes["econ.compete_runs"] += 1;
  digest.add(fixed(eq.price));
  digest.add(eq.full_adopters);
  digest.add(split.customers_a);
  digest.add(split.customers_b);
  digest.add(split.customers_none);
  digest.add(split.rounds);
  digest.add(fixed(split.price_a));
  digest.add(fixed(split.price_b));
  checks.check(eq.price >= 0.0 && eq.price <= game.max_price, "stackelberg_price");
}

// --- settlement -----------------------------------------------------------------

void run_settle(const CsrGraph& g, std::span<const BrokerSet> sets,
                std::span<const bsr::sim::Flow> flows, Recorder& rec,
                Checks& checks, PassResult& out) {
  for (const BrokerSet& b : sets) {
    bsr::econ::Ledger ledger;
    out.settle_parts.push_back(rec.call(
        "econ.settle", [&] { ledger = bsr::econ::settle_flows(g, b, flows); }));
    out.settled_flows += flows.size();
    out.outcomes["econ.settle_routed"] += static_cast<double>(ledger.flows_routed);
    out.outcomes["econ.settle_flows"] += static_cast<double>(flows.size());
    out.outcomes["econ.settle_employee_hops"] +=
        static_cast<double>(ledger.employee_hops);
    checks.check(ledger.balanced(), "ledger_balanced");
    checks.check(ledger.flows_routed + ledger.flows_unroutable == flows.size(),
                 "ledger_flow_count");
    out.digest.add(ledger.flows_routed);
    out.digest.add(ledger.employee_hops);
    out.digest.add(fixed(ledger.customer_payments));
    out.digest.add(fixed(ledger.employee_payouts));
  }
}

// --- point-to-point routing -----------------------------------------------------

void run_routes(const CsrGraph& g, std::span<const BrokerSet> sets,
                std::span<const Pair> all_pairs, bool with_free, std::size_t ref_every,
                Recorder& rec, Checks& checks, PassResult& out) {
  const std::size_t per_set = all_pairs.size() / sets.size();
  std::vector<bsr::sim::Route> dominated(per_set);
  std::vector<bsr::sim::Route> free(per_set);
  for (std::size_t set = 0; set < sets.size(); ++set) {
    const BrokerSet& b = sets[set];
    const std::span<const Pair> pairs = all_pairs.subspan(set * per_set, per_set);
    bsr::sim::Router router(g, b);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      out.route_us.push_back(
          1e6 * rec.call("sim.router.route_dominated",
                         [&] { dominated[i] = router.route_dominated(s, t); }));
    }
    for (std::size_t i = 0; with_free && i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      rec.call("sim.router.route_free", [&] { free[i] = router.route_free(s, t); });
    }
    std::uint64_t reachable = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      reachable += dominated[i].reachable();
      out.digest.add(dominated[i].hops());
      for (const NodeId v : dominated[i].path) out.digest.add(v);
      out.digest.add(free[i].hops());
    }
    out.outcomes["sim.router.reachable"] += static_cast<double>(reachable);
    out.outcomes["sim.router.pairs"] += static_cast<double>(pairs.size());

    audit(rec, out, [&] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [s, t] = pairs[i];
        const bsr::sim::Route& r = dominated[i];
        bool ok = true;
        if (r.reachable()) {
          ok = r.path.front() == s && r.path.back() == t &&
               bsr::broker::is_dominating_path(g, b, r.path) &&
               (!with_free || (free[i].reachable() && free[i].hops() <= r.hops()));
        }
        if (ok && ref_every != 0 && i % ref_every == 0) {
          const std::uint32_t ref = reference_distance(g, b.mask(), s, t);
          ok = ref == (r.reachable() ? r.hops() : kUnreachable);
        }
        checks.check(ok, "dominated_route");
      }
    });
  }
}

void run_policy(const bsr::topology::InternetTopology& topo,
                std::span<const Pair> pairs, std::size_t ref_checks,
                Recorder& rec, Checks& checks, PassResult& out) {
  const CsrGraph& g = topo.graph;
  std::vector<std::vector<NodeId>> paths(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    out.policy_us.push_back(1e6 * rec.call("topology.valley_free_path", [&] {
      paths[i] = bsr::topology::valley_free_path(g, topo.relations, s, t);
    }));
  }
  std::uint64_t found = 0;
  for (const std::vector<NodeId>& p : paths) {
    found += !p.empty();
    out.digest.add(p.size());
    for (const NodeId v : p) out.digest.add(v);
  }
  out.outcomes["topology.vf_path_calls"] += static_cast<double>(pairs.size());
  out.outcomes["topology.vf_path_found"] += static_cast<double>(found);

  audit(rec, out, [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      const std::vector<NodeId>& p = paths[i];
      bool ok = p.empty() ||
                (p.front() == s && p.back() == t && is_valley_free(g, topo.relations, p));
      if (ok && i < ref_checks) {
        const std::vector<std::uint32_t> dist =
            bsr::topology::valley_free_distances(g, topo.relations, s);
        ok = dist[t] == (p.empty() ? kUnreachable
                                   : static_cast<std::uint32_t>(p.size() - 1));
      }
      checks.check(ok, "policy_route");
    }
  });
}

// --- serving plane --------------------------------------------------------------

void run_serve(const CsrGraph& g, const BrokerSet& brokers,
               std::span<const bsr::sim::Flow> flows, std::span<const Pair> pairs,
               int builds, int batch_reps, Recorder& rec, Checks& checks,
               PassResult& out) {
  std::optional<RouteService> service;
  for (int i = 0; i < builds; ++i) {
    service.reset();
    rec.call("sim.route_service.build",
             [&] { service.emplace(g, brokers, nullptr); });
  }
  std::vector<NodeId> label;
  audit(rec, out, [&] { label = reference_components(g, brokers.mask()); });
  const auto fresh_and_true = [&](const RouteAnswer& a, NodeId s, NodeId t) {
    return a.status == AnswerStatus::kFresh && a.reachable == (label[s] == label[t]);
  };

  std::vector<RouteAnswer> answers;
  for (int r = 0; r < batch_reps; ++r) {
    out.batch_parts.push_back(rec.call(
        "sim.route_service.serve_batch",
        [&] { service->serve_batch(flows, 0.0, answers); }));
    out.served_routes += flows.size();
    audit(rec, out, [&] {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        checks.check(fresh_and_true(answers[i], flows[i].src, flows[i].dst),
                     "serve_answer");
      }
    });
    if (r == 0) out.digest.add(bsr::sim::answer_digest(answers));
  }

  std::vector<RouteAnswer> replies(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    out.query_us.push_back(1e6 * rec.call("sim.route_service.query", [&] {
      replies[i] = service->query(s, t, 0.0);
    }));
  }
  out.digest.add(bsr::sim::answer_digest(replies));
  audit(rec, out, [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      checks.check(fresh_and_true(replies[i], pairs[i].first, pairs[i].second),
                   "query_answer");
    }
  });
}

void run_churn(const CsrGraph& g, const BrokerSet& brokers,
               std::span<const bsr::sim::Flow> flows, std::uint64_t seed,
               Recorder& rec, Checks& checks, PassResult& out) {
  struct Event {
    double time;
    NodeId vertex;
    bool fail;
  };
  struct Schedule {
    std::vector<Event> events;
    bsr::sim::RebuildInjection injection;
  };

  // Victims: a seeded draw among the highest-degree brokers — the landmarks
  // — so a stale epoch is as wrong as it gets.
  std::vector<NodeId> hubs(brokers.members().begin(), brokers.members().end());
  std::sort(hubs.begin(), hubs.end(), [&](NodeId a, NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  hubs.resize(std::min<std::size_t>(hubs.size(), 24));
  Rng victim_rng(derive_seed(seed, 500));
  bsr::graph::shuffle(victim_rng, hubs);
  const auto hub = [&](std::size_t i) { return hubs[i % hubs.size()]; };

  std::vector<Schedule> plan(3);
  for (std::size_t i = 0; i < 4; ++i) {
    plan[0].events.push_back({1.0 + 0.5 * static_cast<double>(i), hub(i), true});
  }
  plan[1].events = {{1.0, hub(4), true},  {3.0, hub(5), true},
                    {5.0, hub(4), false}, {7.0, hub(6), true},
                    {9.0, hub(5), false}, {11.0, hub(6), false}};
  plan[2].events = plan[0].events;
  plan[2].injection.crash_next_rebuilds = 2;

  bsr::sim::RouteServiceConfig config;
  config.max_stale_events = 16;
  config.rebuild.build_time = 2.0;
  const double audit_times[] = {0.5, 2.0, 4.0, 8.0, 16.0, 40.0};
  const NodeId n = g.num_vertices();

  for (const Schedule& schedule : plan) {
    bsr::graph::FaultPlane faults(g);
    std::optional<RouteService> service;
    rec.call("sim.route_service.build", [&] {
      service.emplace(g, brokers, &faults, config, schedule.injection);
    });
    std::size_t next = 0;
    std::vector<RouteAnswer> answers;
    for (const double now : audit_times) {
      const auto start = Clock::now();
      while (next < schedule.events.size() && schedule.events[next].time <= now) {
        const Event& e = schedule.events[next++];
        rec.call("sim.route_service.advance", [&] { service->advance(e.time); });
        if (e.fail) {
          faults.fail_vertex(e.vertex);
          rec.call("sim.route_service.on_fault", [&] { service->on_fault(e.time); });
        } else {
          faults.heal_vertex(e.vertex);
          rec.call("sim.route_service.on_heal", [&] { service->on_heal(e.time); });
        }
      }
      rec.call("sim.route_service.advance", [&] { service->advance(now); });
      rec.call("sim.route_service.churn_serve",
               [&] { service->serve_batch(flows, now, answers); });
      out.churn_parts.push_back(seconds_since(start));
      out.digest.add(bsr::sim::answer_digest(answers));

      audit(rec, out, [&] {
        std::vector<bool> up(n);
        std::vector<bool> usable(n, false);
        for (NodeId v = 0; v < n; ++v) up[v] = faults.vertex_ok(v);
        for (const NodeId v : brokers.members()) usable[v] = up[v];
        const std::vector<NodeId> label = reference_components(g, usable, up);
        for (std::size_t i = 0; i < flows.size(); ++i) {
          const NodeId s = flows[i].src;
          const NodeId t = flows[i].dst;
          const bool truth = up[s] && up[t] && label[s] == label[t];
          const RouteAnswer& a = answers[i];
          ++out.churn_answers;
          switch (a.status) {
            case AnswerStatus::kFresh:
              ++out.churn_fresh;
              checks.check(a.reachable == truth, "churn_fresh_answer");
              break;
            case AnswerStatus::kStaleServed:
              checks.check(true, "churn_stale_answer");
              out.outcomes["sim.route_service.stale_misrouted"] +=
                  bsr::sim::audit_answer(a, truth) == bsr::sim::AuditOutcome::kMisrouted;
              break;
            default:
              checks.check(false, "churn_refused_or_shed");
              break;
          }
        }
      });
    }
    const bsr::sim::RouteServiceStats& st = service->stats();
    out.outcomes["sim.route_service.rebuilds_started"] +=
        static_cast<double>(st.rebuilds_started);
    out.outcomes["sim.route_service.rebuilds_ok"] += static_cast<double>(
        st.rebuilds_started - st.rebuild_crashes - st.rebuilds_discarded);
    out.digest.add(st.epochs_published);
    out.digest.add(st.patches);
    out.digest.add(st.rebuild_crashes);
  }
}

void run_health(const bsr::topology::InternetTopology& topo,
                const BrokerSet& brokers, std::uint64_t seed, Recorder& rec,
                PassResult& out) {
  const CsrGraph& g = topo.graph;
  std::vector<bsr::graph::FailureGroup> groups;
  for (NodeId v = topo.num_ases; v < topo.num_vertices(); ++v) {
    groups.push_back(bsr::graph::incident_group(g, v));
  }
  bsr::sim::HealthChurnConfig churn;
  churn.departure_rate = 0.4;
  churn.mean_return_time = 15.0;
  churn.horizon = 20.0;
  bsr::sim::LinkChurnConfig link;
  link.outage_rate = 0.1;
  link.mean_downtime = 8.0;
  const bsr::sim::HealthConfig health;
  const bsr::sim::RepairPolicy repair;
  Rng rng(derive_seed(seed, 600));
  bsr::sim::HealthChurnResult result;
  rec.call("sim.health.churn", [&] {
    result = bsr::sim::simulate_churn_with_health(g, brokers, churn, link, groups,
                                                  health, repair, rng);
  });
  out.digest.add(result.departures);
  out.digest.add(result.returns);
  out.digest.add(result.probe_rounds);
  out.digest.add(result.quarantines);
  out.digest.add(result.repair_attempts);
  out.digest.add(result.replacements_added);
}

// --- reference checks -------------------------------------------------------------

std::vector<NodeId> reference_components(const CsrGraph& g,
                                         const std::vector<bool>& usable,
                                         const std::vector<bool>& up) {
  const NodeId n = g.num_vertices();
  const auto is_up = [&](NodeId v) { return up.empty() || up[v]; };
  std::vector<NodeId> label(n, kUnreachable);
  std::vector<NodeId> queue;
  for (NodeId root = 0; root < n; ++root) {
    if (label[root] != kUnreachable) continue;
    label[root] = root;
    if (!is_up(root)) continue;
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : g.neighbors(u)) {
        if (label[v] != kUnreachable || !is_up(v) || !(usable[u] || usable[v])) continue;
        label[v] = root;
        queue.push_back(v);
      }
    }
  }
  return label;
}

std::uint32_t reference_distance(const CsrGraph& g, const std::vector<bool>& brokers,
                                 NodeId src, NodeId dst) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<NodeId> queue{src};
  dist[src] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    if (u == dst) return dist[u];
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] != kUnreachable || !(brokers[u] || brokers[v])) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return kUnreachable;
}

bool is_valley_free(const CsrGraph& g, const bsr::topology::EdgeRelations& rels,
                    std::span<const NodeId> path) {
  int phase = 0;  // 0 climbing, 1 crossed the peer hop, 2 descending
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId u = path[i];
    const NodeId v = path[i + 1];
    if (!g.has_edge(u, v)) return false;
    if (rels.is_peer(u, v)) {
      if (phase != 0) return false;
      phase = 1;
    } else if (rels.is_provider_of(v, u)) {
      if (phase != 0) return false;
    } else {
      phase = 2;
    }
  }
  return true;
}

}  // namespace pipebench
