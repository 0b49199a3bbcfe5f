// The timed stages every workload is assembled from. A workload runs each
// stage at its own size; the stage times its library calls through the
// Recorder, audits the answers (outside every timed region) and folds the
// integer results into the pass digest.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "topology/relationships.hpp"

namespace pipebench {

using Pair = std::pair<NodeId, NodeId>;

// --- stages -------------------------------------------------------------------

/// The paper pipeline from topology in hand to equilibrium: relationship
/// inference, selection, dominated-subgraph evaluation at three prefixes,
/// valley-free sweeps, settlement and the three economic solvers. Leaves
/// the MaxSG prefixes {small, mid, all} in `sets` for later stages.
struct PipelineConfig {
  std::uint32_t maxsg_k = 3540;
  std::uint32_t greedy_k = 1000;
  std::uint32_t mcbg_k = 1000;
  std::uint32_t prefix_small = 100;
  std::uint32_t prefix_mid = 1000;
  std::size_t lhop_sources = 64;
  std::size_t path_sources = 32;
  std::size_t vf_sources = 8;  // per bidirectional fraction
  std::size_t stackelberg_customers = 200;
  std::size_t compete_customers = 12;
  /// Best-response rounds cap: rounds to convergence vary widely with the
  /// population, so a small cap keeps the solver's work per seed steady.
  std::size_t compete_rounds = 12;
};
void run_pipeline(const Setup& in, const PipelineConfig& cfg, std::uint64_t seed,
                  Recorder& rec, Checks& checks, PassResult& out,
                  std::vector<bsr::broker::BrokerSet>& sets);

/// econ::settle_flows of `flows` over each broker set; ledgers must balance.
void run_settle(const CsrGraph& g, std::span<const bsr::broker::BrokerSet> sets,
                std::span<const bsr::sim::Flow> flows, Recorder& rec,
                Checks& checks, PassResult& out);

/// Per-call Router::route_dominated (and, `with_free`, route_free) with
/// `pairs` split evenly over the broker sets. Every dominated route must be
/// B-dominating and no shorter than the free route; every `ref_every`-th
/// pair is also checked against a reference BFS in G_B.
void run_routes(const CsrGraph& g, std::span<const bsr::broker::BrokerSet> sets,
                std::span<const Pair> pairs, bool with_free, std::size_t ref_every,
                Recorder& rec, Checks& checks, PassResult& out);

/// Per-call topology::valley_free_path over `pairs`; every path must be
/// valley-free, and the first `ref_checks` lengths must match a
/// valley_free_distances sweep.
void run_policy(const bsr::topology::InternetTopology& topo,
                std::span<const Pair> pairs, std::size_t ref_checks,
                Recorder& rec, Checks& checks, PassResult& out);

/// Steady-state serving: `builds` oracle builds, `batch_reps` serve_batch
/// calls over `flows`, then per-call query over `pairs`. Every answer must
/// be fresh and agree with a reference component labelling of G_B.
void run_serve(const CsrGraph& g, const bsr::broker::BrokerSet& brokers,
               std::span<const bsr::sim::Flow> flows, std::span<const Pair> pairs,
               int builds, int batch_reps, Recorder& rec, Checks& checks,
               PassResult& out);

/// The churn phase: seeded burst, flap and crash-injected-rebuild schedules
/// driving on_fault/on_heal/advance while serving `flows` at fixed audit
/// instants. Every answer is audited against a from-scratch reference
/// labelling.
void run_churn(const CsrGraph& g, const bsr::broker::BrokerSet& brokers,
               std::span<const bsr::sim::Flow> flows, std::uint64_t seed,
               Recorder& rec, Checks& checks, PassResult& out);

/// One simulate_churn_with_health run: probe-based detection and budgeted
/// repair under broker outages and IXP link flaps.
void run_health(const bsr::topology::InternetTopology& topo,
                const bsr::broker::BrokerSet& brokers, std::uint64_t seed,
                Recorder& rec, PassResult& out);

// --- reference checks (share no code with the library's fast paths) ---------

/// Component label per vertex of G_B restricted to `up` vertices (all up
/// when empty): edge {u, v} counts iff both ends are up and one is in
/// `usable`. Labels are the smallest vertex id of the component.
[[nodiscard]] std::vector<NodeId> reference_components(
    const CsrGraph& g, const std::vector<bool>& usable,
    const std::vector<bool>& up = {});

/// Hop distance src..dst in G_B by a plain BFS; kUnreachable if none.
[[nodiscard]] std::uint32_t reference_distance(const CsrGraph& g,
                                               const std::vector<bool>& brokers,
                                               NodeId src, NodeId dst);

/// True iff `path` is a path of g that is valley-free under `rels`: zero or
/// more customer-to-provider hops, at most one peer hop, then zero or more
/// provider-to-customer hops.
[[nodiscard]] bool is_valley_free(const CsrGraph& g,
                                  const bsr::topology::EdgeRelations& rels,
                                  std::span<const NodeId> path);

}  // namespace pipebench
