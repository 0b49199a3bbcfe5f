#include "graph/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "obs/stats.hpp"

namespace bsr::graph::engine {

namespace {

int env_threads() {
  const char* raw = std::getenv("BSR_THREADS");
  if (raw == nullptr || *raw == '\0') return 1;
  const long parsed = std::strtol(raw, nullptr, 10);
  if (parsed < 1) return 1;
  if (parsed > 256) return 256;
  return static_cast<int>(parsed);
}

// 0 = "use the environment"; set_num_threads stores an explicit override.
std::atomic<int> g_override{0};

}  // namespace

int num_threads() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int from_env = env_threads();
  return from_env;
}

void set_num_threads(int n) {
  g_override.store(n > 0 ? (n > 256 ? 256 : n) : 0, std::memory_order_relaxed);
}

std::size_t plan_shards(std::size_t count) {
  const auto want = static_cast<std::size_t>(num_threads());
  const std::size_t shards = want < count ? want : count;
  return shards == 0 ? 1 : shards;
}

void for_each_shard(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t shards = plan_shards(count);
  // One batch per call regardless of the shard fan-out, so the counter stays
  // invariant under BSR_THREADS (a per-shard count would not be).
  BSR_COUNT(EngineShardBatches);
  if (shards <= 1) {
    body(0, 0, count);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  for (std::size_t s = 1; s < shards; ++s) {
    workers.emplace_back(
        [&body, s, count, shards] { body(s, s * count / shards, (s + 1) * count / shards); });
  }
  body(0, 0, count / shards);
  for (auto& w : workers) w.join();
}

std::vector<NodeId> layered_path(const Workspace& ws, NodeId state,
                                 std::uint32_t layers) {
  std::vector<NodeId> path;
  for (NodeId s = state;; s = ws.parent(s)) {
    path.push_back(s / layers);
    if (ws.parent(s) == s) break;  // the root is its own parent
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace bsr::graph::engine
