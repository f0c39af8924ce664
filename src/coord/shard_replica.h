#ifndef MBR_COORD_SHARD_REPLICA_H_
#define MBR_COORD_SHARD_REPLICA_H_

// Per-shard warm-start state of a partitioned deployment (DESIGN.md §6.7).
//
// A shard serves queries whose user it owns under the plan. To make the
// shard-local exploration byte-identical to single-node, the shard keeps a
// *halo subgraph*: the full node-id universe, but out-adjacency only for
// nodes within `plan.halo_depth()` out-hops of an owned node. A depth-d
// exploration from an owned user expands the out-edges of nodes at depth
// < d, so halo_depth = d - 1 guarantees every edge the single-node scorer
// would traverse exists in the halo — CSR adjacency is sorted by neighbor
// id on both graphs, so OutNeighbors() of any halo-interior node is the
// identical span of ids and labels. Extra reachable edges (the halo is an
// over-approximation for multi-shard owners) are never traversed and
// cannot perturb scores.
//
// Authority is global by definition (follower counts over the FULL graph,
// §3.2), so the shard's AuthorityIndex is built from the full graph, not
// the halo. A landmark shard holds a verbatim copy of the full landmark
// index (|L|·|T|·top_n stored entries), so Algorithm 2 over the halo meets
// the same landmarks and composes the same lists as single-node: the
// shard's ordinary QueryEngine answers its own users byte-identically and
// the router only forwards.

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/shard_plan.h"
#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/status.h"

namespace mbr::coord {

// The halo subgraph of `shard`: same num_nodes/num_topics/node labels as
// `full`, out-edges of every node within `halo_depth` out-hops of an
// owned node (owned nodes themselves are depth 0).
graph::LabeledGraph BuildHaloSubgraph(const graph::LabeledGraph& full,
                                      const ShardPlan& plan, uint32_t shard,
                                      uint32_t halo_depth);

// The serving state of a shard node (coord::ServingNode, which fills the
// same fields over the whole graph for a single node). Heap state is
// owned through unique_ptrs so the context can be moved after the engine
// has captured references into it.
struct ShardContext {
  std::vector<bool> owned;  // full node universe
  std::unique_ptr<graph::LabeledGraph> subgraph;
  std::unique_ptr<core::AuthorityIndex> authority;  // from the FULL graph
  // Copy of the full landmark index (null for exact-mode shards). The
  // next benchmark change shares the caller's index and drops this field.
  std::unique_ptr<landmark::LandmarkIndex> index;
  std::unique_ptr<service::QueryEngine> engine;
};

// Builds a shard's serving state from the full graph and the plan.
// `global_index` may be null (exact-mode shard: the engine runs converged
// scoring over the halo, which needs halo_depth >= params.max_depth - 1);
// otherwise the engine serves Algorithm 2 from a copy of it, which needs
// halo_depth >= query_depth - 1 — or params.max_depth - 1 with the
// degradation ladder on, whose unpressured tier is exact scoring. A plan
// whose halo is too shallow is refused. `sim` must outlive the returned
// context (the engine keeps a pointer); `full` and `global_index` are
// only read during the build (the next benchmark change keeps
// `global_index` instead of copying it).
util::Result<std::unique_ptr<ShardContext>> BuildShardContext(
    const graph::LabeledGraph& full, const topics::SimilarityMatrix& sim,
    const ShardPlan& plan, uint32_t shard,
    const landmark::LandmarkIndex* global_index,
    service::EngineConfig engine_config);

}  // namespace mbr::coord

#endif  // MBR_COORD_SHARD_REPLICA_H_
