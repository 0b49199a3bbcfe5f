#include "graph/workspace.hpp"

#include <algorithm>

#include "obs/stats.hpp"

namespace bsr::graph::engine {

void Workspace::ensure(NodeId n) {
  if (n <= capacity()) return;
  // New entries get stamp 0, which never equals a live epoch (epochs start
  // at 1), so grown slots read as unvisited/unmarked.
  dist_.resize(n, kUnreachable);
  parent_.resize(n, kUnreachable);
  stamp_.resize(n, 0);
  mark_stamp_.resize(n, 0);
  queue_.reserve(n);
}

void Workspace::begin(NodeId n) {
  ensure(n);
  if (++epoch_ == 0) {  // wrap: re-zero once per ~4B traversals
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  queue_.clear();
  stats_edges_scanned = 0;
  BSR_COUNT(EngineWorkspaceEpochBumps);
  BSR_GAUGE_MAX(EngineWorkspaceHighWater, capacity());
}

void BackDomain::begin(NodeId n) {
  if (n > dist_.size()) {
    dist_.resize(n, kUnreachable);
    stamp_.resize(n, 0);  // never equals a live epoch: grown slots read unvisited
    queue_.reserve(n);
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  queue_.clear();
}

std::vector<std::uint64_t>& Workspace::visited_bits(NodeId n) {
  visited_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  return visited_bits_;
}

std::vector<std::uint64_t>& Workspace::frontier_bits(NodeId n) {
  frontier_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  return frontier_bits_;
}

void Workspace::begin_marks(NodeId n) {
  ensure(n);
  if (++mark_epoch_ == 0) {
    std::fill(mark_stamp_.begin(), mark_stamp_.end(), 0u);
    mark_epoch_ = 1;
  }
  BSR_COUNT(EngineWorkspaceEpochBumps);
  BSR_GAUGE_MAX(EngineWorkspaceHighWater, capacity());
}

}  // namespace bsr::graph::engine
