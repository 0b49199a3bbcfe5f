// pipebench — the repository benchmark: three seeded closed-loop workloads
// over the public library API, timed from outside.
//
// Every layer is measured at its public entry point: the benchmark wraps
// each call into topology, broker, sim, econ (and, through them, the graph
// engine) in a Recorder::call. An untraced run only times; a traced run also
// opens an obs::Span around the call and adds the merged obs::snapshot()
// counter delta to the layer's tally, so per-layer self time and work counts
// come from the same calls the end-to-end numbers time. Nothing under src/
// is modified.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/demand.hpp"
#include "topology/internet.hpp"

namespace pipebench {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Independent input stream `stream` of workload seed `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Calls into the library at layer boundaries. Untraced, call() is a plain
/// call. Traced, it opens an obs::Span named after the layer (library spans
/// such as broker.maxsg nest inside it) and adds the counter delta of every
/// thread to the layer's tally — Span itself only sees the calling thread's
/// counters, and the sharded kernels count on worker threads too.
class Recorder {
 public:
  void set_traced(bool on) {
    traced_ = on;
    bsr::obs::set_tracing(on);
  }
  [[nodiscard]] bool traced() const noexcept { return traced_; }

  /// Runs fn() as one call into `layer`; returns its wall seconds (tracing
  /// bookkeeping excluded) and appends them to the collecting series.
  template <class Fn>
  double call(const char* layer, Fn&& fn) {
    double seconds = 0.0;
    if (!traced_) {
      const auto start = Clock::now();
      fn();
      seconds = seconds_since(start);
    } else {
      const bsr::obs::Snapshot before = bsr::obs::snapshot();
      {
        bsr::obs::Span span(layer);
        const auto start = Clock::now();
        fn();
        seconds = seconds_since(start);
      }
      add(layer, bsr::obs::delta(before, bsr::obs::snapshot()));
    }
    if (series_ != nullptr) series_->push_back(seconds);
    return seconds;
  }

  /// While set, every call's wall seconds are appended to `series`.
  void collect(std::vector<double>* series) noexcept { series_ = series; }
  [[nodiscard]] std::vector<double>* collecting() const noexcept { return series_; }

  /// Counter total over every traced call of every layer.
  [[nodiscard]] std::uint64_t counter(bsr::obs::Counter c) const;
  /// Work units (obs work-unit counters) of one layer's traced calls.
  [[nodiscard]] std::uint64_t work_units(const std::string& layer) const;

 private:
  void add(const char* layer, const bsr::obs::Snapshot& d);

  bool traced_ = false;
  std::vector<double>* series_ = nullptr;
  std::map<std::string, std::array<std::uint64_t, bsr::obs::kNumCounters>> tallies_;
};

/// Correctness accounting: every checked operation is attempted once and
/// counts as failed when its check rejects it.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  // by check name

  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++failures[what];
    }
  }
};

/// FNV-1a over integers only — the cross-thread, cross-run result digest.
struct Digest {
  std::uint64_t value = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffu;
      value *= 1099511628211ull;
    }
  }
  void add_members(const bsr::broker::BrokerSet& b) {
    add(b.size());
    for (const NodeId v : b.members()) add(v);
  }
};

/// What one pass of a workload produced. A pass repeats the same calls in
/// the same order, so each `*_parts` and `*_us` series holds one wall time
/// per call position; the report takes every position's median across
/// passes, which keeps a burst of interference from other work on the host
/// in one pass out of the figure. Everything but times is deterministic in
/// the seed.
struct PassResult {
  double pass_s = 0.0;   // whole pass, audits included
  double audit_s = 0.0;  // correctness audits, outside every metric
  std::vector<double> home_parts;    // the workload's own stages: pipeline_s
  std::vector<double> settle_parts;  // econ::settle_flows calls
  std::uint64_t settled_flows = 0;
  std::vector<double> batch_parts;   // steady-state serve_batch calls
  std::uint64_t served_routes = 0;
  std::vector<double> churn_parts;   // churn phase per audit instant
  std::uint64_t churn_answers = 0;
  std::uint64_t churn_fresh = 0;
  std::vector<double> route_us;   // per-call Router::route_dominated
  std::vector<double> policy_us;  // per-call topology::valley_free_path
  std::vector<double> query_us;   // per-call RouteService::query
  Digest digest;
  /// Per-layer outcome numbers (ratios, counts) keyed by metric name.
  std::map<std::string, double> outcomes;
};

/// A workload's inputs, made from the seed during set-up.
struct Setup {
  bsr::topology::InternetTopology topo;
  std::vector<bsr::broker::BrokerSet> broker_sets;  // selection-order prefixes
  std::vector<bsr::sim::Flow> demand;       // settled flows (gravity)
  std::vector<bsr::sim::Flow> batch;        // served flows (gravity)
  std::vector<bsr::sim::Flow> audit_flows;  // served under churn (gravity)
  std::vector<std::pair<NodeId, NodeId>> pairs;         // Router calls
  std::vector<std::pair<NodeId, NodeId>> policy_pairs;  // valley_free_path
  std::vector<std::pair<NodeId, NodeId>> query_pairs;   // RouteService::query
  Digest digest;  // selection made during set-up
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Perfetto file of the traced pass
};

/// One workload: set-up (timed as setup_s) and one pass of timed work.
struct Workload {
  const char* name;
  void (*setup)(const Options& opt, Recorder& rec, Setup& out);
  void (*pass)(const Options& opt, const Setup& in, Recorder& rec,
               Checks& checks, PassResult& out);
};

/// The three workloads, by name; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

}  // namespace pipebench
