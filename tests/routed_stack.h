#ifndef MBR_TESTS_ROUTED_STACK_H_
#define MBR_TESTS_ROUTED_STACK_H_

// A two-shard routed deployment on loopback for tests that drive the
// router's front end: exact-mode shard servers over halo subgraphs of one
// graph, and a Router in front of them on an ephemeral port.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coord/router.h"
#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "core/params.h"
#include "distributed/partition.h"
#include "graph/labeled_graph.h"
#include "net/server.h"
#include "topics/similarity_matrix.h"

namespace mbr::coord {

struct RoutedStack {
  // `rcfg` is used as given but for port (ephemeral) and landmark_mode
  // (exact forwarding, so no landmark index is needed).
  RoutedStack(const graph::LabeledGraph& graph, RouterConfig rcfg) {
    constexpr uint32_t kShards = 2;
    distributed::PartitionConfig pcfg;
    pcfg.num_partitions = kShards;
    // Exact exploration stays on the home shard when the halo holds every
    // edge within max_depth - 1 hops of an owned node.
    const uint32_t halo = core::ScoreParams{}.max_depth - 1;
    const distributed::PartitionStrategy strategy =
        distributed::PartitionStrategy::kHash;
    plan = ShardPlan(distributed::PartitionGraph(graph, strategy, pcfg),
                     strategy, halo, static_cast<uint32_t>(graph.num_topics()),
                     std::vector<ShardEndpoint>(kShards));
    for (uint32_t s = 0; s < kShards; ++s) {
      service::EngineConfig ec;
      ec.num_threads = 1;
      ec.cache_capacity = 1024;
      auto ctx = BuildShardContext(graph, topics::TwitterSimilarity(), plan,
                                   s, /*global_index=*/nullptr, ec);
      EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
      if (!ctx.ok()) return;
      shards.push_back(std::move(*ctx));
      net::ServerConfig scfg;
      scfg.dispatch_threads = 1;
      servers.push_back(
          std::make_unique<net::Server>(*shards.back()->engine, scfg));
      EXPECT_TRUE(servers.back()->Start().ok());
      plan.SetEndpoint(s, {"127.0.0.1", servers.back()->port()});
    }
    rcfg.port = 0;
    rcfg.landmark_mode = false;
    router = std::make_unique<Router>(plan, rcfg);
    EXPECT_TRUE(router->Start().ok());
  }

  ~RoutedStack() {
    if (router != nullptr) {
      router->RequestStop();
      router->Wait();
    }
    for (auto& s : servers) {
      s->RequestStop();
      s->Wait();
    }
  }

  ShardPlan plan;
  std::vector<std::unique_ptr<ShardContext>> shards;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::unique_ptr<Router> router;
};

}  // namespace mbr::coord

#endif  // MBR_TESTS_ROUTED_STACK_H_
