#include "coord/shard_replica.h"

#include <queue>
#include <utility>

#include "util/logging.h"

namespace mbr::coord {

graph::LabeledGraph BuildHaloSubgraph(const graph::LabeledGraph& full,
                                      const ShardPlan& plan, uint32_t shard,
                                      uint32_t halo_depth) {
  const graph::NodeId n = full.num_nodes();
  MBR_CHECK(plan.num_nodes() == n);
  MBR_CHECK(shard < plan.num_shards());

  // Multi-source out-BFS from the owned nodes. depth[v] is the hop count
  // at which v was first reached; nodes at depth <= halo_depth contribute
  // their out-adjacency (an exploration of depth halo_depth + 1 expands
  // exactly those frontiers).
  std::vector<uint32_t> depth(n, UINT32_MAX);
  std::queue<graph::NodeId> frontier;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (plan.ShardOf(v) == shard) {
      depth[v] = 0;
      frontier.push(v);
    }
  }
  while (!frontier.empty()) {
    const graph::NodeId u = frontier.front();
    frontier.pop();
    if (depth[u] >= halo_depth) continue;
    for (graph::NodeId v : full.OutNeighbors(u)) {
      if (depth[v] != UINT32_MAX) continue;
      depth[v] = depth[u] + 1;
      frontier.push(v);
    }
  }

  graph::GraphBuilder b(n, full.num_topics());
  for (graph::NodeId v = 0; v < n; ++v) {
    b.SetNodeLabels(v, full.NodeLabels(v));
    if (depth[v] > halo_depth) continue;  // UINT32_MAX for unreached nodes
    std::span<const graph::NodeId> nbrs = full.OutNeighbors(v);
    std::span<const topics::TopicSet> labs = full.OutEdgeLabels(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      b.AddEdge(v, nbrs[i], labs[i]);
    }
  }
  return std::move(b).Build();
}

util::Result<std::unique_ptr<ShardContext>> BuildShardContext(
    const graph::LabeledGraph& full, const topics::SimilarityMatrix& sim,
    const ShardPlan& plan, uint32_t shard,
    const landmark::LandmarkIndex* global_index,
    service::EngineConfig engine_config) {
  if (plan.num_nodes() != full.num_nodes()) {
    return util::Status::InvalidArgument(
        "shard plan covers " + std::to_string(plan.num_nodes()) +
        " nodes but the graph has " + std::to_string(full.num_nodes()));
  }
  if (static_cast<int>(plan.num_topics()) != full.num_topics()) {
    return util::Status::InvalidArgument(
        "shard plan topic count does not match the graph");
  }
  if (shard >= plan.num_shards()) {
    return util::Status::InvalidArgument(
        "shard " + std::to_string(shard) + " outside plan of " +
        std::to_string(plan.num_shards()) + " shards");
  }
  // Landmark-only engines explore to query_depth (2). An engine with an
  // exact rung explores to params.max_depth: an exact shard, and a
  // landmark shard with the degradation ladder on, whose unpressured tier
  // is exact. Either way the halo must cover depth - 1 hops.
  const bool exact_rung =
      global_index == nullptr || engine_config.degrade.enabled;
  const uint32_t needed = exact_rung ? engine_config.params.max_depth - 1
                                     : engine_config.approx.query_depth - 1;
  if (plan.halo_depth() < needed) {
    return util::Status::InvalidArgument(
        "plan halo depth " + std::to_string(plan.halo_depth()) +
        " cannot serve explorations needing depth " + std::to_string(needed));
  }

  auto ctx = std::make_unique<ShardContext>();
  ctx->owned = plan.OwnedMask(shard);
  ctx->subgraph = std::make_unique<graph::LabeledGraph>(
      BuildHaloSubgraph(full, plan, shard, plan.halo_depth()));
  // Authority is a global quantity — always from the full graph.
  ctx->authority = std::make_unique<core::AuthorityIndex>(full);
  if (global_index != nullptr) {
    ctx->index = std::make_unique<landmark::LandmarkIndex>(*global_index);
    engine_config.landmarks = ctx->index.get();
  } else {
    engine_config.landmarks = nullptr;
  }
  ctx->engine = std::make_unique<service::QueryEngine>(
      *ctx->subgraph, *ctx->authority, sim, engine_config);
  return ctx;
}

}  // namespace mbr::coord
