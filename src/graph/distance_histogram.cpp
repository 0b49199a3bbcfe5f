#include "graph/distance_histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/sampling.hpp"

namespace bsr::graph {

namespace detail {

DistanceCdf cdf_from_histogram(std::vector<std::uint64_t> histogram,
                               std::size_t sources_used, NodeId n) {
  DistanceCdf out;
  out.sources_used = sources_used;
  const double denom =
      static_cast<double>(sources_used) * static_cast<double>(n - 1);
  out.cdf.resize(std::max<std::size_t>(histogram.size(), 1), 0.0);
  std::uint64_t running = 0;
  for (std::size_t l = 1; l < histogram.size(); ++l) {
    running += histogram[l];
    out.cdf[l] = static_cast<double>(running) / denom;
  }
  out.reachable = out.cdf.back();
  return out;
}

}  // namespace detail

DistanceCdf distance_cdf_from_sources(const CsrGraph& g,
                                      std::span<const NodeId> sources) {
  return distance_cdf_from_sources_with(g, sources, engine::AllEdges{});
}

DistanceCdf distance_cdf_sampled(const CsrGraph& g, Rng& rng, std::size_t num_sources) {
  const NodeId n = g.num_vertices();
  if (num_sources >= n) return distance_cdf_exact(g);
  const auto sources = sample_distinct(rng, n, static_cast<NodeId>(num_sources));
  return distance_cdf_from_sources(g, sources);
}

DistanceCdf distance_cdf_exact(const CsrGraph& g) {
  std::vector<NodeId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), NodeId{0});
  return distance_cdf_from_sources(g, all);
}

double max_cdf_deviation(const DistanceCdf& a, const DistanceCdf& b) {
  const std::size_t len = std::max(a.cdf.size(), b.cdf.size());
  double worst = 0.0;
  for (std::size_t l = 0; l < len; ++l) {
    worst = std::max(worst, std::abs(a.at(static_cast<std::uint32_t>(l)) -
                                     b.at(static_cast<std::uint32_t>(l))));
  }
  return worst;
}

}  // namespace bsr::graph
