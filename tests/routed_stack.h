#ifndef MBR_TESTS_ROUTED_STACK_H_
#define MBR_TESTS_ROUTED_STACK_H_

// A routed deployment on loopback for tests that drive the router's front
// end: one started coord::ServingNode per shard of a plan, each on an
// ephemeral port, and a Router in front of them.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "coord/router.h"
#include "coord/serving_node.h"
#include "coord/shard_plan.h"
#include "core/params.h"
#include "distributed/partition.h"
#include "graph/labeled_graph.h"

namespace mbr::coord {

struct RoutedStack {
  // Shard s serves `shard_config(s)`, whose plan and shard are set here.
  // `rcfg` is used as given but for port (ephemeral). A shard that fails
  // to build fails the test and leaves `router` null.
  RoutedStack(ShardPlan shard_plan,
              const std::function<NodeConfig(uint32_t)>& shard_config,
              RouterConfig rcfg)
      : plan(std::move(shard_plan)) {
    for (uint32_t s = 0; s < plan.num_shards(); ++s) {
      NodeConfig nc = shard_config(s);
      nc.plan = &plan;
      nc.shard = s;
      auto node = ServingNode::Build(std::move(nc));
      EXPECT_TRUE(node.ok()) << node.status().ToString();
      if (!node.ok()) return;
      shards.push_back(std::move(*node));
      EXPECT_TRUE(shards.back()->Start().ok());
      plan.SetEndpoint(s, {"127.0.0.1", shards.back()->server().port()});
    }
    rcfg.port = 0;
    router = std::make_unique<Router>(plan, rcfg);
    EXPECT_TRUE(router->Start().ok());
  }

  // Two exact shards of `graph`, hash-partitioned. Exact exploration stays
  // on the home shard when the halo holds every edge within max_depth - 1
  // hops of an owned node.
  RoutedStack(const graph::LabeledGraph& graph, RouterConfig rcfg)
      : RoutedStack(MakePlan(graph, distributed::PartitionStrategy::kHash,
                             /*shards=*/2, core::ScoreParams{}.max_depth - 1),
                    [&graph](uint32_t) {
                      NodeConfig nc;
                      nc.graph = graph;
                      nc.engine.num_threads = 1;
                      nc.engine.cache_capacity = 1024;
                      nc.server.dispatch_threads = 1;
                      return nc;
                    },
                    rcfg) {}

  // A plan of `graph` whose endpoints are filled in as the shards bind.
  static ShardPlan MakePlan(const graph::LabeledGraph& graph,
                            distributed::PartitionStrategy strategy,
                            uint32_t shards, uint32_t halo_depth) {
    distributed::PartitionConfig pcfg;
    pcfg.num_partitions = shards;
    return ShardPlan(distributed::PartitionGraph(graph, strategy, pcfg),
                     strategy, halo_depth,
                     static_cast<uint32_t>(graph.num_topics()),
                     std::vector<ShardEndpoint>(shards));
  }

  ~RoutedStack() {
    if (router != nullptr) {
      router->RequestStop();
      router->Wait();
    }
  }

  ShardPlan plan;
  std::vector<std::unique_ptr<ServingNode>> shards;
  std::unique_ptr<Router> router;
};

}  // namespace mbr::coord

#endif  // MBR_TESTS_ROUTED_STACK_H_
