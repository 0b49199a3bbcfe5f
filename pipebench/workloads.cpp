// The three workloads. Each is a set-up plus one pass of stages; the home
// stages (what the workload exists to stress) make up pipeline_s, and a
// small fixed probe of every other stage follows so that each workload
// reports all end-to-end metrics on its own topology and broker sets.
#include <algorithm>

#include "broker/maxsg.hpp"
#include "graph/rng.hpp"
#include "stages.hpp"

namespace pipebench {

namespace {

using bsr::broker::BrokerSet;
using bsr::graph::Rng;

/// Input sizes of one workload.
struct Sizes {
  std::size_t demand = 0;        // flows settled per broker set
  std::size_t batch = 0;         // flows per serve_batch call
  std::size_t audit_flows = 0;   // flows served at each churn audit instant
  std::size_t pairs = 0;         // Router pairs, split over the broker sets
  std::size_t policy_pairs = 0;  // valley_free_path calls
  std::size_t query_pairs = 0;   // RouteService::query calls
};

// Per-call route and policy series hold at least 2,000 distinct calls, so
// p99 has twenty beyond it. Call times spread over two orders of magnitude
// and the p50 sits where they are thinnest: at 1,000 calls, which pairs the
// seed draws moves the route p50 by about a tenth, and doubling the calls
// halves that variance.
constexpr Sizes kPipelineSizes{.demand = 1'000, .batch = 50'000, .audit_flows = 2'000,
                               .pairs = 2'004, .policy_pairs = 2'000,
                               .query_pairs = 20'000};
constexpr Sizes kRouteSizes{.demand = 1'000, .batch = 50'000, .audit_flows = 2'000,
                            .pairs = 2'004, .policy_pairs = 2'000, .query_pairs = 20'000};
constexpr Sizes kServeSizes{.demand = 1'000, .batch = 250'000, .audit_flows = 4'000,
                            .pairs = 2'000, .policy_pairs = 2'000, .query_pairs = 20'000};

/// Topology generation plus every seeded input. `select_k` > 0 also runs
/// MaxSG and keeps the prefixes listed in `prefixes` (0 = the whole set).
void make_inputs(const Options& opt, const Sizes& sizes, std::uint32_t select_k,
                 std::initializer_list<std::uint32_t> prefixes, Recorder& rec,
                 Setup& out) {
  bsr::topology::InternetConfig config;
  config.seed = derive_seed(opt.seed, 1);
  rec.call("topology.generate", [&] { out.topo = bsr::topology::make_internet(config); });
  const CsrGraph& g = out.topo.graph;
  out.digest.add(g.num_vertices());
  out.digest.add(g.num_edges());

  if (select_k > 0) {
    bsr::broker::MaxSgResult selection;
    rec.call("broker.maxsg", [&] { selection = bsr::broker::maxsg(g, select_k); });
    for (const std::uint32_t k : prefixes) {
      out.broker_sets.push_back(
          k == 0 ? selection.brokers
                 : selection.brokers.prefix(
                       std::min<std::size_t>(k, selection.brokers.size())));
    }
    out.digest.add_members(selection.brokers);
  }

  const auto flows = [&](std::uint64_t stream, std::size_t count) {
    bsr::sim::DemandConfig demand;
    demand.num_flows = count;
    Rng rng(derive_seed(opt.seed, stream));
    return bsr::sim::generate_flows(g, demand, rng);
  };
  // Call pairs follow the demand model too: gravity endpoints, so the
  // per-call mix of early exits and full-component scans is that of real
  // traffic rather than of uniform (mostly stub-to-stub) pairs.
  const auto pairs = [&](std::uint64_t stream, std::size_t count) {
    std::vector<Pair> out;
    for (const bsr::sim::Flow& f : flows(stream, count)) out.emplace_back(f.src, f.dst);
    return out;
  };
  out.demand = flows(10, sizes.demand);
  out.batch = flows(11, sizes.batch);
  out.audit_flows = flows(12, sizes.audit_flows);
  out.pairs = pairs(13, sizes.pairs);
  out.policy_pairs = pairs(14, sizes.policy_pairs);
  out.query_pairs = pairs(15, sizes.query_pairs);
}

// --- paper_pipeline ---------------------------------------------------------------

void pipeline_setup(const Options& opt, Recorder& rec, Setup& out) {
  make_inputs(opt, kPipelineSizes, 0, {}, rec, out);
}

void pipeline_pass(const Options& opt, const Setup& in, Recorder& rec, Checks& checks,
                   PassResult& out) {
  const CsrGraph& g = in.topo.graph;
  std::vector<BrokerSet> sets;
  rec.collect(&out.home_parts);
  run_pipeline(in, PipelineConfig{}, opt.seed, rec, checks, out, sets);
  rec.collect(nullptr);

  // Probes, on the prefixes this pass selected.
  run_routes(g, sets, in.pairs, false, 32, rec, checks, out);
  run_policy(in.topo, in.policy_pairs, 4, rec, checks, out);
  run_serve(g, sets[1], in.batch, in.query_pairs, 1, 8, rec, checks, out);
  run_churn(g, sets[1], in.audit_flows, opt.seed, rec, checks, out);
}

// --- route_settle -----------------------------------------------------------------

void route_setup(const Options& opt, Recorder& rec, Setup& out) {
  make_inputs(opt, kRouteSizes, 3540, {100, 1000, 0}, rec, out);
}

void route_pass(const Options& opt, const Setup& in, Recorder& rec, Checks& checks,
                PassResult& out) {
  const CsrGraph& g = in.topo.graph;
  rec.collect(&out.home_parts);
  run_settle(g, in.broker_sets, in.demand, rec, checks, out);
  run_routes(g, in.broker_sets, in.pairs, true, 16, rec, checks, out);
  run_policy(in.topo, in.policy_pairs, 8, rec, checks, out);
  rec.collect(nullptr);

  // Probes, on the whole selection.
  run_serve(g, in.broker_sets.back(), in.batch, in.query_pairs, 1, 8, rec, checks, out);
  run_churn(g, in.broker_sets.back(), in.audit_flows, opt.seed, rec, checks, out);
}

// --- serve_churn ------------------------------------------------------------------

void serve_setup(const Options& opt, Recorder& rec, Setup& out) {
  make_inputs(opt, kServeSizes, 520, {0}, rec, out);
}

void serve_pass(const Options& opt, const Setup& in, Recorder& rec, Checks& checks,
                PassResult& out) {
  const CsrGraph& g = in.topo.graph;
  const BrokerSet& brokers = in.broker_sets.front();
  rec.collect(&out.home_parts);
  run_serve(g, brokers, in.batch, in.query_pairs, 3, 4, rec, checks, out);
  run_churn(g, brokers, in.audit_flows, opt.seed, rec, checks, out);
  rec.collect(nullptr);
  // The health run's work swings by half with the seed's random fault
  // timeline, more than any bound, so it is kept out of the end-to-end
  // figures and read from its layer metrics and counters.
  run_health(in.topo, brokers, opt.seed, rec, out);

  // Probes, on the same broker set.
  run_settle(g, in.broker_sets, in.demand, rec, checks, out);
  run_routes(g, in.broker_sets, in.pairs, false, 32, rec, checks, out);
  run_policy(in.topo, in.policy_pairs, 4, rec, checks, out);
}

constexpr Workload kWorkloads[] = {
    {"paper_pipeline", pipeline_setup, pipeline_pass},
    {"route_settle", route_setup, route_pass},
    {"serve_churn", serve_setup, serve_pass},
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ull);
  return bsr::graph::splitmix64(state);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace pipebench
