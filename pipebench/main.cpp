// pipebench command line:
//
//   pipebench --workload <paper_pipeline|route_settle|serve_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// The engine's worker count comes from BSR_THREADS, as everywhere else.
// Untraced (--trace 0): set up seven times, then run passes until --seconds
// have elapsed, and report every end-to-end metric. Traced (--trace 1):
// set up once under tracing, alternate untraced and traced passes until
// --seconds have elapsed, then set up and pass once more at one thread, and
// report every per-layer metric. Either way the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
// is 1 when a correctness check failed and 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/engine.hpp"
#include "harness.hpp"
#include "obs/export.hpp"

namespace pipebench {

// --- Recorder -----------------------------------------------------------------

void Recorder::add(const char* layer, const bsr::obs::Snapshot& d) {
  auto& tally = tallies_.try_emplace(layer).first->second;
  for (std::size_t c = 0; c < bsr::obs::kNumCounters; ++c) tally[c] += d.counters[c];
}

std::uint64_t Recorder::counter(bsr::obs::Counter c) const {
  std::uint64_t total = 0;
  for (const auto& [layer, tally] : tallies_) total += tally[static_cast<std::size_t>(c)];
  return total;
}

std::uint64_t Recorder::work_units(const std::string& layer) const {
  const auto it = tallies_.find(layer);
  if (it == tallies_.end()) return 0;
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < bsr::obs::kNumCounters; ++c) {
    if (bsr::obs::is_work_unit(static_cast<bsr::obs::Counter>(c))) total += it->second[c];
  }
  return total;
}

namespace {

using bsr::obs::Counter;
using bsr::obs::SpanRecord;

// --- layers -------------------------------------------------------------------

/// Every span the benchmark opens, in the order of the per-layer table.
const std::vector<std::string> kLayers = {
    "topology.generate",           "topology.infer_relationships",
    "topology.valley_free",        "topology.valley_free_path",
    "broker.maxsg",                "broker.greedy_mcb",
    "broker.mcbg",                 "broker.saturated",
    "broker.lhop_cdf",             "broker.path_lengths",
    "sim.router.route_dominated",  "sim.router.route_free",
    "econ.settle",                 "econ.bargain",
    "econ.stackelberg",            "econ.compete",
    "sim.route_service.build",     "sim.route_service.serve_batch",
    "sim.route_service.query",     "sim.route_service.advance",
    "sim.route_service.on_fault",  "sim.route_service.on_heal",
    "sim.route_service.churn_serve", "sim.health.churn",
    "bench.audit",                 "bench.setup",
    "bench.pass",
};

/// The sharded layers whose one-thread time is also reported.
const std::vector<std::string> kShardedLayers = {
    "broker.maxsg", "broker.lhop_cdf", "broker.path_lengths",
    "sim.route_service.build", "sim.route_service.serve_batch"};

/// Self time (span minus child spans) and call count per layer.
struct LayerTimes {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> calls;

  /// A span directly under a bench.setup/bench.pass root is a benchmark
  /// call; library spans nested deeper are charged to that call's layer.
  void add(const std::vector<SpanRecord>& spans) {
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    std::vector<std::string> layer(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.parent < 0 || spans[static_cast<std::size_t>(s.parent)].parent < 0) {
        layer[i] = s.name;
        if (s.parent >= 0) calls[layer[i]] += 1;
      } else {
        layer[i] = layer[static_cast<std::size_t>(s.parent)];
      }
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t d = spans[i].duration_ns;
      self_ms[layer[i]] += static_cast<double>(d > child_ns[i] ? d - child_ns[i] : 0) / 1e6;
    }
  }
  [[nodiscard]] double ms(const std::string& layer) const {
    const auto it = self_ms.find(layer);
    return it == self_ms.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double count(const std::string& layer) const {
    const auto it = calls.find(layer);
    return it == calls.end() ? 0.0 : it->second;
  }
};

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Each call position's median across passes: one time per distinct call
/// (pair, query, stage call), with a burst of interference from other work
/// on the host in any one pass filtered out.
std::vector<double> median_per_call(const std::vector<PassResult>& passes,
                                    std::vector<double> PassResult::*series) {
  std::vector<double> out;
  for (std::size_t i = 0; i < (passes.front().*series).size(); ++i) {
    std::vector<double> at;
    for (const PassResult& p : passes) at.push_back((p.*series)[i]);
    out.push_back(median(std::move(at)));
  }
  return out;
}

/// Sum over call positions of each position's median across passes: the
/// wall time of a typical pass through one series of calls.
double sum_of_medians(const std::vector<PassResult>& passes,
                      std::vector<double> PassResult::*series) {
  double total = 0.0;
  for (const double t : median_per_call(passes, series)) total += t;
  return total;
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::string number(double x) {
  if (!std::isfinite(x)) x = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << "\n" << title << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.6g %-8s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples != 0) std::printf(" n=%zu", m.samples);
    std::printf("\n");
  }
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const auto& [what, count] : checks.failures) {
    std::cout << "FAILED check " << what << ": " << count << "\n";
  }
  std::cout << "attempted " << checks.attempted << ", failed " << checks.failed << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// --- runs ---------------------------------------------------------------------

double peak_rss_mb() {
  return static_cast<double>(bsr::bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// One pass, timed end to end; traced passes also drain their spans.
PassResult run_pass(const Workload& w, const Options& opt, const Setup& setup,
                    Recorder& rec, Checks& checks, std::vector<SpanRecord>* spans) {
  PassResult r;
  const auto start = Clock::now();
  if (spans != nullptr) {
    rec.set_traced(true);
    {
      bsr::obs::Span root("bench.pass");
      w.pass(opt, setup, rec, checks, r);
    }
    rec.set_traced(false);
    *spans = bsr::obs::drain_trace();
  } else {
    w.pass(opt, setup, rec, checks, r);
  }
  r.pass_s = seconds_since(start);
  r.digest.add(setup.digest.value);
  return r;
}

void traced_setup(const Workload& w, const Options& opt, Recorder& rec, Setup& setup,
                  std::vector<SpanRecord>& spans) {
  rec.set_traced(true);
  {
    bsr::obs::Span root("bench.setup");
    w.setup(opt, rec, setup);
  }
  rec.set_traced(false);
  spans = bsr::obs::drain_trace();
}

/// Passes per run at the least, so every per-call median has company.
constexpr std::size_t kMinPasses = 3;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 7;

int run_untraced(const Workload& w, const Options& opt) {
  Recorder rec;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupReps; ++i) {
    setup = Setup{};
    const auto start = Clock::now();
    w.setup(opt, rec, setup);
    setup_s.push_back(seconds_since(start));
  }

  Checks checks;
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  while (passes.size() < kMinPasses || seconds_since(start) < opt.seconds) {
    passes.push_back(run_pass(w, opt, setup, rec, checks, nullptr));
    checks.check(passes.back().digest.value == passes.front().digest.value,
                 "digest_repeats");
  }

  const PassResult& first = passes.front();
  const auto route_us = median_per_call(passes, &PassResult::route_us);
  const auto policy_us = median_per_call(passes, &PassResult::policy_us);
  const auto query_us = median_per_call(passes, &PassResult::query_us);
  std::vector<double> batch_s;  // every batch of a run serves the same flows
  for (const PassResult& p : passes) {
    batch_s.insert(batch_s.end(), p.batch_parts.begin(), p.batch_parts.end());
  }
  const std::size_t n = passes.size();
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", peak_rss_mb(), "MiB", 1},
      {"pipeline_s", sum_of_medians(passes, &PassResult::home_parts), "s", n},
      {"settle_flows_per_s",
       static_cast<double>(first.settled_flows) /
           sum_of_medians(passes, &PassResult::settle_parts),
       "flows/s", n * first.settle_parts.size()},
      {"route_p50_us", percentile(route_us, 0.50), "us", n * route_us.size()},
      {"route_p99_us", percentile(route_us, 0.99), "us", n * route_us.size()},
      {"policy_route_p50_us", percentile(policy_us, 0.50), "us", n * policy_us.size()},
      {"policy_route_p99_us", percentile(policy_us, 0.99), "us", n * policy_us.size()},
      {"serve_routes_per_s",
       static_cast<double>(first.served_routes) /
           static_cast<double>(first.batch_parts.size()) / median(batch_s),
       "routes/s", n * first.batch_parts.size()},
      {"serve_query_p50_us", percentile(query_us, 0.50), "us", n * query_us.size()},
      {"serve_query_p99_us", percentile(query_us, 0.99), "us", n * query_us.size()},
      {"churn_s", sum_of_medians(passes, &PassResult::churn_parts), "s", n},
      {"churn_fresh_share",
       static_cast<double>(first.churn_fresh) / static_cast<double>(first.churn_answers),
       "ratio", first.churn_answers},
  };
  double audit_s = 0.0;
  for (const PassResult& p : passes) audit_s += p.audit_s;

  std::cout << "workload " << w.name << ", seed " << opt.seed << ", "
            << bsr::graph::engine::num_threads() << " threads, closed loop, " << n
            << " passes in " << seconds_since(start) << " s (audits " << audit_s
            << " s)\n"
            << "result digest " << passes.front().digest.value << "\n  set-ups:";
  for (const double t : setup_s) std::printf(" %.3f s", t);
  std::printf("\n");
  for (std::size_t i = 0; i < n; ++i) {
    double home_s = 0.0;
    for (const double t : passes[i].home_parts) home_s += t;
    std::printf("  pass %zu: %.3f s (home stages %.3f s, audits %.3f s)\n", i,
                passes[i].pass_s, home_s, passes[i].audit_s);
  }
  print_metrics("end-to-end metrics (n = samples)", metrics);
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

/// Per-layer view of the traced passes: setup layers count once, pass
/// layers per pass.
struct LayerView {
  LayerTimes setup;
  LayerTimes pass;  // summed over `passes`
  LayerTimes setup1;
  LayerTimes pass1;
  double passes = 1.0;
  const Recorder* setup_rec = nullptr;
  const Recorder* pass_rec = nullptr;
  std::map<std::string, double> outcomes;  // summed over `passes`

  [[nodiscard]] double ms(const std::string& layer) const {
    return setup.ms(layer) + pass.ms(layer) / passes;
  }
  [[nodiscard]] double ms1(const std::string& layer) const {
    return setup1.ms(layer) + pass1.ms(layer);
  }
  [[nodiscard]] double calls(const std::string& layer) const {
    return setup.count(layer) + pass.count(layer) / passes;
  }
  [[nodiscard]] double count(Counter c) const {
    return static_cast<double>(setup_rec->counter(c)) +
           static_cast<double>(pass_rec->counter(c)) / passes;
  }
  [[nodiscard]] double work(const std::string& layer) const {
    return static_cast<double>(setup_rec->work_units(layer)) +
           static_cast<double>(pass_rec->work_units(layer)) / passes;
  }
  [[nodiscard]] double outcome(const std::string& key) const {
    const auto it = outcomes.find(key);
    return it == outcomes.end() ? 0.0 : it->second / passes;
  }
  [[nodiscard]] double ratio(const std::string& num, const std::string& den) const {
    const double d = outcome(den);
    return d > 0.0 ? outcome(num) / d : 0.0;
  }
};

int run_traced(const Workload& w, const Options& opt) {
  const int threads = bsr::graph::engine::num_threads();
  Checks checks;
  Recorder setup_rec;
  Setup setup;
  std::vector<SpanRecord> setup_spans;
  traced_setup(w, opt, setup_rec, setup, setup_spans);

  LayerView view;
  view.setup.add(setup_spans);
  Recorder pass_rec;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<SpanRecord> first_pass_spans;
  std::uint64_t digest = 0;
  const auto start = Clock::now();
  do {
    const PassResult plain = run_pass(w, opt, setup, pass_rec, checks, nullptr);
    untraced_s.push_back(plain.pass_s);
    std::vector<SpanRecord> spans;
    const PassResult traced = run_pass(w, opt, setup, pass_rec, checks, &spans);
    traced_s.push_back(traced.pass_s);
    if (digest == 0) digest = plain.digest.value;
    checks.check(plain.digest.value == digest && traced.digest.value == digest,
                 "digest_repeats");
    view.pass.add(spans);
    for (const auto& [key, value] : traced.outcomes) view.outcomes[key] += value;
    if (first_pass_spans.empty()) first_pass_spans = std::move(spans);
  } while (seconds_since(start) < opt.seconds);
  view.passes = static_cast<double>(traced_s.size());
  view.setup_rec = &setup_rec;
  view.pass_rec = &pass_rec;
  const double rss = peak_rss_mb();
  const bsr::obs::Snapshot gauges = bsr::obs::snapshot();

  // The plain single-threaded baseline of the same set-up and pass.
  {
    bsr::graph::engine::set_num_threads(1);
    Recorder rec1;
    Setup setup1;
    std::vector<SpanRecord> spans;
    traced_setup(w, opt, rec1, setup1, spans);
    view.setup1.add(spans);
    const PassResult one = run_pass(w, opt, setup1, rec1, checks, &spans);
    view.pass1.add(spans);
    checks.check(one.digest.value == digest, "digest_one_thread");
    bsr::graph::engine::set_num_threads(0);  // back to BSR_THREADS
  }

  if (!opt.trace_out.empty()) {
    std::vector<SpanRecord> all = std::move(setup_spans);
    const auto offset = static_cast<std::int32_t>(all.size());
    for (SpanRecord& s : first_pass_spans) {
      if (s.parent >= 0) s.parent += offset;
      all.push_back(std::move(s));
    }
    std::ofstream os(opt.trace_out);
    bsr::obs::write_chrome_trace(os, all);
    std::cout << "wrote Perfetto trace " << opt.trace_out << "\n";
  }

  const auto v = [&](const std::string& layer) { return view.ms(layer); };
  const auto c = [&](Counter counter) { return view.count(counter); };
  const double untraced_ms = median(untraced_s) * 1e3;
  const double traced_ms = median(traced_s) * 1e3;
  std::vector<Metric> metrics = {
      {"topology.generate_ms", v("topology.generate"), "ms"},
      {"topology.infer_relationships_ms", v("topology.infer_relationships"), "ms"},
      {"topology.relationship_agreement",
       view.ratio("topology.rel_agree", "topology.rel_edges"), "ratio"},
      {"topology.valley_free_ms", v("topology.valley_free"), "ms"},
      {"topology.valley_free_sources", view.outcome("topology.vf_sources"), "count"},
      {"topology.valley_free_reached",
       view.ratio("topology.vf_reached", "topology.vf_pairs"), "ratio"},
      {"topology.valley_free_path_ms", v("topology.valley_free_path"), "ms"},
      {"topology.valley_free_path_calls", view.outcome("topology.vf_path_calls"),
       "count"},
      {"topology.valley_free_path_found_ratio",
       view.ratio("topology.vf_path_found", "topology.vf_path_calls"), "ratio"},
      {"broker.maxsg_ms", v("broker.maxsg"), "ms"},
      {"broker.maxsg.gain_evals", c(Counter::kMaxsgGainEvals), "count"},
      {"broker.maxsg.rounds", c(Counter::kMaxsgRounds), "count"},
      {"broker.greedy_mcb_ms", v("broker.greedy_mcb"), "ms"},
      {"broker.greedy.gain_evals", c(Counter::kGreedyGainEvals), "count"},
      {"broker.mcbg_ms", v("broker.mcbg"), "ms"},
      {"broker.mcbg.stitch_promotions", c(Counter::kMcbgStitchPromotions), "count"},
      {"broker.saturated_ms", v("broker.saturated"), "ms"},
      {"broker.lhop_cdf_ms", v("broker.lhop_cdf"), "ms"},
      {"broker.path_lengths_ms", v("broker.path_lengths"), "ms"},
      {"engine.bfs.runs", c(Counter::kEngineBfsRuns), "count"},
      {"engine.bfs.edges_scanned", c(Counter::kEngineBfsEdgesScanned), "count"},
      {"engine.bfs.vertices_visited", c(Counter::kEngineBfsVerticesVisited), "count"},
      {"engine.bfs.bottom_up_levels", c(Counter::kEngineBfsBottomUpLevels), "count"},
      {"engine.shards.batches", c(Counter::kEngineShardBatches), "count"},
      {"graph.uf.find_steps", c(Counter::kUfFindSteps), "count"},
      {"sim.router.route_dominated_ms", v("sim.router.route_dominated"), "ms"},
      {"sim.router.route_free_ms", v("sim.router.route_free"), "ms"},
      {"sim.router.routes", c(Counter::kRouterRoutes), "count"},
      {"sim.router.reachable_ratio", view.ratio("sim.router.reachable", "sim.router.pairs"),
       "ratio"},
      {"sim.router.state_high_water",
       static_cast<double>(gauges.gauge(bsr::obs::Gauge::kRouterStateHighWater)), "count"},
      {"econ.settle_ms", v("econ.settle"), "ms"},
      {"econ.settle.routed_ratio", view.ratio("econ.settle_routed", "econ.settle_flows"),
       "ratio"},
      {"econ.settle.employee_hops", view.outcome("econ.settle_employee_hops"), "count"},
      {"econ.bargain_ms", v("econ.bargain"), "ms"},
      {"econ.stackelberg_ms", v("econ.stackelberg"), "ms"},
      {"econ.compete_ms", v("econ.compete"), "ms"},
      {"econ.compete.rounds", view.outcome("econ.compete_rounds"), "count"},
      {"econ.compete.converged", view.ratio("econ.compete_converged", "econ.compete_runs"),
       "ratio"},
      {"sim.route_service.build_ms", v("sim.route_service.build"), "ms"},
      {"sim.route_service.serve_batch_ms", v("sim.route_service.serve_batch"), "ms"},
      {"sim.route_service.queries", c(Counter::kRouteServiceQueries), "count"},
      {"sim.route_service.query_ms", v("sim.route_service.query"), "ms"},
      {"sim.route_service.advance_ms", v("sim.route_service.advance"), "ms"},
      {"sim.route_service.on_fault_ms", v("sim.route_service.on_fault"), "ms"},
      {"sim.route_service.on_heal_ms", v("sim.route_service.on_heal"), "ms"},
      {"sim.route_service.churn_serve_ms", v("sim.route_service.churn_serve"), "ms"},
      {"sim.route_service.patches", c(Counter::kRouteServicePatches), "count"},
      {"sim.route_service.rebuilds", c(Counter::kRouteServiceRebuilds), "count"},
      {"sim.route_service.rebuild_crashes", c(Counter::kRouteServiceRebuildCrashes),
       "count"},
      {"sim.route_service.epochs_published", c(Counter::kRouteServiceEpochsPublished),
       "count"},
      {"sim.route_service.rebuild_success_ratio",
       view.ratio("sim.route_service.rebuilds_ok", "sim.route_service.rebuilds_started"),
       "ratio"},
      {"sim.route_service.fresh", c(Counter::kRouteServiceFresh), "count"},
      {"sim.route_service.stale_served", c(Counter::kRouteServiceStaleServed), "count"},
      {"sim.route_service.shedded", c(Counter::kRouteServiceShedded), "count"},
      {"sim.route_service.refused", c(Counter::kRouteServiceRefused), "count"},
      {"sim.route_service.stale_misrouted",
       view.outcome("sim.route_service.stale_misrouted"), "count"},
      {"sim.health.churn_ms", v("sim.health.churn"), "ms"},
      {"sim.health.probes_sent", c(Counter::kHealthProbesSent), "count"},
      {"sim.health.probe_rounds", c(Counter::kHealthProbeRounds), "count"},
      {"sim.repair.attempts", c(Counter::kRepairAttempts), "count"},
      {"sim.repair.deferred", c(Counter::kRepairDeferred), "count"},
      {"obs.trace_overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0, "%"},
      {"bench.audit_ms", v("bench.audit"), "ms"},
      {"bench.pass_ms", traced_ms, "ms"},
      {"bench.untraced_pass_ms", untraced_ms, "ms"},
      {"bench.unattributed_ms", view.pass.ms("bench.pass") / view.passes, "ms"},
      {"bench.peak_rss_mb", rss, "MiB"},
  };
  for (const std::string& layer : kShardedLayers) {
    const double t1 = view.ms1(layer);
    const double tn = v(layer);
    metrics.push_back({layer + ".t1_ms", t1, "ms"});
    metrics.push_back({layer + ".parallel_efficiency",
                       tn > 0.0 ? t1 / (tn * threads) : 0.0, "ratio"});
  }

  // The per-layer table: self time, calls, work units and useful/attempted.
  std::cout << "workload " << w.name << ", seed " << opt.seed << ", traced "
            << traced_s.size() << " passes at " << threads
            << " threads + 1 pass at 1 thread\nresult digest " << digest << "\n\n";
  std::printf("  %-32s %12s %10s %14s %10s %12s\n", "layer", "self ms", "calls",
              "work units", "useful", "1-thread ms");
  const std::map<std::string, double> useful = {
      {"topology.infer_relationships",
       view.ratio("topology.rel_agree", "topology.rel_edges")},
      {"topology.valley_free", view.ratio("topology.vf_reached", "topology.vf_pairs")},
      {"topology.valley_free_path",
       view.ratio("topology.vf_path_found", "topology.vf_path_calls")},
      {"sim.router.route_dominated", view.ratio("sim.router.reachable", "sim.router.pairs")},
      {"econ.settle", view.ratio("econ.settle_routed", "econ.settle_flows")},
      {"econ.compete", view.ratio("econ.compete_converged", "econ.compete_runs")},
      {"sim.route_service.advance",
       view.ratio("sim.route_service.rebuilds_ok", "sim.route_service.rebuilds_started")},
  };
  double layer_sum = 0.0;
  for (const std::string& layer : kLayers) {
    const double ms = v(layer);
    if (ms == 0.0 && view.calls(layer) == 0.0) continue;
    if (layer != "bench.setup" && layer != "bench.pass") {
      layer_sum += view.pass.ms(layer) / view.passes;
    }
    const auto u = useful.find(layer);
    std::printf("  %-32s %12.3f %10.0f %14.0f %10s %12.3f\n", layer.c_str(), ms,
                view.calls(layer), view.work(layer),
                u == useful.end() ? "-" : number(std::round(u->second * 1e4) / 1e4).c_str(),
                view.ms1(layer));
  }
  const double outside_ms = view.pass.ms("bench.pass") / view.passes;
  std::printf(
      "\n  per traced pass: layer self times %.1f ms + outside any layer %.1f ms = "
      "%.1f ms;\n  median untraced pass %.1f ms, traced %.1f ms: tracing overhead "
      "%.2f%%\n",
      layer_sum, outside_ms, layer_sum + outside_ms, untraced_ms, traced_ms,
      (traced_ms / untraced_ms - 1.0) * 100.0);
  print_metrics("per-layer metrics (per pass; set-up layers per set-up)", metrics);
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload" || key == "--trace-out") {
      (key == "--workload" ? opt.workload : opt.trace_out) = value;
      continue;
    }
    if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      opt.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0' || value.empty()) return false;
  }
  return argc % 2 == 1 && opt.seconds > 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  Options opt;
  const Workload* w = nullptr;
  if (!parse(argc, argv, opt) || (w = find_workload(opt.workload)) == nullptr) {
    std::cerr << "usage: pipebench --workload <paper_pipeline|route_settle|serve_churn>"
                 " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  try {
    return opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);
  } catch (const std::exception& e) {
    std::cerr << "pipebench: " << e.what() << "\n";
    return 2;
  }
}
