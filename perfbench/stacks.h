#ifndef MBR_PERFBENCH_STACKS_H_
#define MBR_PERFBENCH_STACKS_H_

// The serving stacks the benchmark drives, built in-process and served on
// loopback: the graph and its indexes (Dataset), then one workload's
// servers (Stack).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/router.h"
#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "core/authority.h"
#include "datagen/dataset.h"
#include "inputs.h"
#include "landmark/index.h"
#include "net/client.h"
#include "net/server.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "util/status.h"

namespace mbr::perfbench {

struct WorkloadSpec {
  const char* name;
  ReadMix mix;
  bool landmarks;  // landmark engine (Algorithm 2) instead of exact scoring
  bool routed;     // through coord::Router over 2 shard servers
  bool writes;     // mutable server plus the open-loop writer
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The graph, its authority index and (landmark workloads) the landmark
// index, with the time each constructor took.
struct Dataset {
  datagen::GeneratedDataset data;
  std::unique_ptr<core::AuthorityIndex> authority;
  std::unique_ptr<landmark::LandmarkIndex> index;  // null for exact
  double generate_s = 0.0;
  double authority_s = 0.0;
  double index_s = 0.0;

  const graph::LabeledGraph& graph() const { return data.graph; }
};

// The benchmark graph: 20 000 nodes (553 654 edges, 18 topics) from the
// generator's default seed, the same for every run, so the workload seed
// varies the traffic and not the graph (the cost of an exact read depends
// on the graph's shape: one generated graph served uniform reads 20%
// faster than another). With `landmarks`, 32 out-degree landmarks storing
// their top 40 per topic.
std::unique_ptr<Dataset> BuildDataset(bool landmarks);

// The engine configuration of every engine the benchmark builds: the
// `mbrec serve` cache default (4096 lists) and 2 engine workers, over
// `index` when non-null. Each engine gets a private metrics registry.
service::EngineConfig BenchEngineConfig(const landmark::LandmarkIndex* index);

// The server configuration: `mbrec serve` defaults with 2 dispatchers.
net::ServerConfig BenchServerConfig();

// A client of a benchmark server on loopback `port`.
net::ClientConfig BenchClientConfig(uint16_t port);

// One workload's servers on loopback. Destruction stops the router, the
// servers and the repair thread, in that order, and joins their threads.
class Stack {
 public:
  static util::Result<std::unique_ptr<Stack>> Start(const WorkloadSpec& spec,
                                                    const Dataset& dataset);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Where the load generators connect: the router, or the single server.
  uint16_t port() const;

  // Single-node stacks.
  service::QueryEngine* engine() { return engine_.get(); }
  net::Server* server() { return server_.get(); }
  service::MutationApplier* applier() { return applier_.get(); }
  service::LandmarkRepairer* repairer() { return repairer_.get(); }

  // Routed stacks.
  coord::Router* router() { return router_.get(); }
  const coord::ShardPlan& plan() const { return plan_; }
  size_t num_shards() const { return shards_.size(); }
  coord::ShardContext& shard(size_t s) { return *shards_[s]; }
  net::Server& shard_server(size_t s) { return *shard_servers_[s]; }

 private:
  Stack() = default;

  // Single node. Members are destroyed bottom-up: server, then repairer
  // (its thread repairs `index_` through `engine_`), applier, engine.
  std::unique_ptr<landmark::LandmarkIndex> index_;  // writable copy (writes)
  std::unique_ptr<service::QueryEngine> engine_;
  std::unique_ptr<service::MutationApplier> applier_;
  std::unique_ptr<service::LandmarkRepairer> repairer_;
  std::unique_ptr<net::Server> server_;

  // Routed.
  coord::ShardPlan plan_;
  std::vector<std::unique_ptr<coord::ShardContext>> shards_;
  std::vector<std::unique_ptr<net::Server>> shard_servers_;
  std::unique_ptr<coord::Router> router_;
};

}  // namespace mbr::perfbench

#endif  // MBR_PERFBENCH_STACKS_H_
