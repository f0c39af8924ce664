#ifndef MBR_COORD_SERVING_NODE_H_
#define MBR_COORD_SERVING_NODE_H_

// One serving node: the assembly that `mbrec load`, `mbrec serve` (single
// node and `--plan` shard) and every in-process serving stack are built
// from (DESIGN.md §6.2).
//
// The paper ships one pre-processed landmark index to every serving worker
// (§4.1, §5.2), and Proposition 4 composes its stored lists correctly only
// under the topic set and ScoreParams they were built with. Build()
// applies that warm-start check once, to single nodes and shards alike:
//
//   * a landmark index must have the graph's topic count;
//   * a landmark engine serves with the index's ScoreParams, whatever
//     NodeConfig::engine.params says;
//   * a shard node is read-only: a plan refuses `mutable_serving`.
//
// Build() then builds the engine, over the whole graph or, given a plan,
// over the shard's halo through BuildShardContext. A mutable node also
// gets its MutationApplier and, with a landmark index, a LandmarkRepairer
// installed with SetRepairer and SetStaleProbe(MakeStaleProbe()), so every
// applied batch marks every landmark slot stale before it is published and
// approx replies scored while a slot is stale say so (DESIGN.md §6.5).
//
// Start() starts the repair thread, then the network server. The
// destructor stops them in reverse: the server, which holds the applier,
// before the applier, and the repairer before the engine and the index it
// repairs. In-process users never call Start(): with no repair thread,
// RepairStale() and Quiesce() run on the calling thread, and nothing
// listens.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "net/server.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/status.h"

namespace mbr::coord {

struct NodeConfig {
  // The full graph. A shard node keeps only its halo of it.
  graph::LabeledGraph graph;
  // Algorithm 2's stored lists; unset = exact scoring.
  std::optional<landmark::LandmarkIndex> index;
  // Must match the graph's topic vocabulary and outlive the node.
  const topics::SimilarityMatrix* sim = &topics::TwitterSimilarity();
  // The node sets `landmarks`, and `params` when an index is given.
  service::EngineConfig engine;
  // Read by Start(). The node sets `applier` and the shard fields.
  net::ServerConfig server;
  // Accept FOLLOW/UNFOLLOW/RELABEL through a MutationApplier.
  bool mutable_serving = false;
  service::MutationConfig mutation;
  // Serve shard `shard` of this plan; null = a single node over the whole
  // graph. Read only while building.
  const ShardPlan* plan = nullptr;
  uint32_t shard = 0;
};

class ServingNode {
 public:
  // Checks and builds a node; a failed check is kInvalidArgument.
  static util::Result<std::unique_ptr<ServingNode>> Build(NodeConfig config);
  ~ServingNode();

  ServingNode(const ServingNode&) = delete;
  ServingNode& operator=(const ServingNode&) = delete;

  // Starts the repair thread (mutable landmark nodes), then binds and
  // starts the server. Call at most once.
  util::Status Start();

  service::QueryEngine& engine() { return *state_->engine; }
  // The graph the engine was built on: the whole graph, or the shard's
  // halo. A mutable node's live generation is applier()->current_graph().
  const graph::LabeledGraph& graph() const { return *state_->subgraph; }
  // The index the engine serves from (repaired in place by a mutable
  // node); null for exact scoring.
  const landmark::LandmarkIndex* index() const { return state_->index.get(); }
  // The users a shard node homes; empty for a single node.
  const std::vector<bool>& owned() const { return state_->owned; }
  // Null unless the node is mutable (and, for the repairer, has an index).
  service::MutationApplier* applier() { return applier_.get(); }
  service::LandmarkRepairer* repairer() { return repairer_.get(); }
  // Valid after Start().
  net::Server& server() { return *server_; }

 private:
  ServingNode() = default;

  // Heap state the engine references. A single node fills it over the
  // whole graph, with an empty `owned` mask.
  std::unique_ptr<ShardContext> state_;
  std::unique_ptr<service::MutationApplier> applier_;
  std::unique_ptr<service::LandmarkRepairer> repairer_;
  net::ServerConfig server_config_;
  std::unique_ptr<net::Server> server_;
};

}  // namespace mbr::coord

#endif  // MBR_COORD_SERVING_NODE_H_
