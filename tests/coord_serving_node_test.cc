// coord::ServingNode, the one assembly of a serving node.
//
// The warm-start check holds for single nodes and shards alike: an index
// built for another topic set is refused, shards compose under the
// ScoreParams the index was built with (so a routed deployment answers
// byte-identically to one node over the same index), and a shard refuses
// mutations. The lifecycle test destroys a started mutable landmark node,
// repair thread running, while readers and a mutator are still talking
// to it over the wire (the `dynamic` label puts it in the TSan leg).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coord/serving_node.h"
#include "core/authority.h"
#include "datagen/dblp_generator.h"
#include "datagen/twitter_generator.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "routed_stack.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"

namespace mbr::coord {
namespace {

constexpr uint32_t kNodes = 240;

graph::LabeledGraph TwitterGraph() {
  datagen::TwitterConfig cfg;
  cfg.num_nodes = kNodes;
  return datagen::GenerateTwitter(cfg).graph;
}

landmark::LandmarkIndex MakeIndex(const graph::LabeledGraph& g,
                                  const topics::SimilarityMatrix& sim,
                                  const core::ScoreParams& params) {
  landmark::SelectionConfig sel;
  sel.num_landmarks = 12;
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 30;
  icfg.params = params;
  icfg.num_threads = 1;
  return landmark::LandmarkIndex(
      g, core::AuthorityIndex(g), sim,
      landmark::SelectLandmarks(g, landmark::SelectionStrategy::kOutDeg, sel)
          .landmarks,
      icfg);
}

// A node over a copy of `g` and `index`, with one scoring thread.
NodeConfig NodeOver(const graph::LabeledGraph& g,
                    const landmark::LandmarkIndex& index) {
  NodeConfig nc;
  nc.graph = g;
  nc.index = index;
  nc.engine.num_threads = 1;
  nc.server.dispatch_threads = 1;
  return nc;
}

TEST(ServingNodeWarmStartTest, IndexForAnotherTopicSetIsRefused) {
  const graph::LabeledGraph g = TwitterGraph();
  datagen::DblpConfig dcfg;
  dcfg.num_nodes = g.num_nodes();
  const graph::LabeledGraph dblp = datagen::GenerateDblp(dcfg).graph;
  ASSERT_EQ(dblp.num_nodes(), g.num_nodes());
  ASSERT_NE(dblp.num_topics(), g.num_topics());
  const landmark::LandmarkIndex dblp_index =
      MakeIndex(dblp, topics::DblpSimilarity(), core::ScoreParams{});
  const ShardPlan plan = RoutedStack::MakePlan(
      g, distributed::PartitionStrategy::kHash, /*shards=*/2,
      /*halo_depth=*/1);

  for (const ShardPlan* p : {static_cast<const ShardPlan*>(nullptr), &plan}) {
    const std::string context = p == nullptr ? "single node" : "shard node";
    NodeConfig nc = NodeOver(g, dblp_index);
    nc.plan = p;
    auto node = ServingNode::Build(std::move(nc));
    ASSERT_FALSE(node.ok()) << context << ": served an index for "
                            << dblp.num_topics() << " topics";
    EXPECT_EQ(node.status().code(), util::StatusCode::kInvalidArgument)
        << context;
    EXPECT_NE(node.status().message().find("topics"), std::string::npos)
        << context << ": " << node.status().ToString();
  }
}

TEST(ServingNodeWarmStartTest, ShardsComposeUnderTheIndexParams) {
  const graph::LabeledGraph g = TwitterGraph();
  core::ScoreParams params;
  params.beta = 0.1;  // the default is 0.0005
  const landmark::LandmarkIndex index =
      MakeIndex(g, topics::TwitterSimilarity(), params);

  // Both deployments leave NodeConfig::engine.params at its default.
  auto single = ServingNode::Build(NodeOver(g, index));
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  RoutedStack routed(
      RoutedStack::MakePlan(g, distributed::PartitionStrategy::kCommunity,
                            /*shards=*/2, /*halo_depth=*/1),
      [&](uint32_t) { return NodeOver(g, index); }, RouterConfig{});
  ASSERT_NE(routed.router, nullptr);
  net::ClientConfig cc;
  cc.port = routed.router->port();
  auto client = net::Client::Connect(cc);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The same index composed under the default β: what a node that ignored
  // the index's params would serve.
  const core::AuthorityIndex authority(g);
  service::EngineConfig default_ec;
  default_ec.num_threads = 1;
  default_ec.landmarks = &index;
  service::QueryEngine default_params(g, authority,
                                      topics::TwitterSimilarity(), default_ec);

  util::Rng rng(17);
  int differs_from_default = 0;
  for (int i = 0; i < 24; ++i) {
    const uint32_t user = static_cast<uint32_t>(rng.UniformU64(kNodes));
    const auto topic = static_cast<topics::TopicId>(
        rng.UniformU64(static_cast<uint64_t>(g.num_topics())));
    auto want = (*single)->engine().TopN(user, topic, 10);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = client->Recommend(user, topic, 10);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(net::EncodeResult(*got), net::EncodeResult(*want))
        << "user " << user << " topic " << static_cast<int>(topic)
        << ": the routed reply diverged from the single node";
    auto skewed = default_params.TopN(user, topic, 10);
    ASSERT_TRUE(skewed.ok());
    if (net::EncodeResult(*skewed) != net::EncodeResult(*want)) {
      ++differs_from_default;
    }
  }
  // The panel tells the index's β from the default one.
  EXPECT_GT(differs_from_default, 0);
}

TEST(ServingNodeWarmStartTest, ShardNodeRefusesMutations) {
  const graph::LabeledGraph g = TwitterGraph();
  // A halo deep enough for an exact shard: only `mutable_serving` is wrong.
  const ShardPlan plan = RoutedStack::MakePlan(
      g, distributed::PartitionStrategy::kHash, /*shards=*/2,
      core::ScoreParams{}.max_depth - 1);
  NodeConfig nc;
  nc.graph = g;
  nc.plan = &plan;
  ASSERT_TRUE(ServingNode::Build(nc).ok());
  nc.mutable_serving = true;
  auto node = ServingNode::Build(std::move(nc));
  ASSERT_FALSE(node.ok()) << "a shard node accepted mutations";
  EXPECT_EQ(node.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(node.status().message().find("mutations"), std::string::npos)
      << node.status().ToString();
}

// Whether a failed call is how a client sees a node going away: the
// connection closed or reset, or a SHUTTING_DOWN reply while it drains.
bool IsShutdown(const util::Status& status) {
  return status.code() == util::StatusCode::kUnavailable ||
         status.code() == util::StatusCode::kIoError;
}

TEST(ServingNodeLifecycleTest, DestroyedUnderLoadWithTheRepairerRunning) {
  const graph::LabeledGraph g = TwitterGraph();
  NodeConfig nc = NodeOver(g, MakeIndex(g, topics::TwitterSimilarity(),
                                        core::ScoreParams{}));
  nc.engine.num_threads = 2;
  nc.engine.cache_capacity = 256;
  nc.server.dispatch_threads = 2;
  nc.mutable_serving = true;
  auto built = ServingNode::Build(std::move(nc));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<ServingNode> node = std::move(*built);
  ASSERT_TRUE(node->Start().ok());
  net::ClientConfig cc;
  cc.port = node->server().port();
  cc.request_timeout_ms = 5000;

  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> replies{0};
  std::atomic<uint64_t> applied_batches{0};
  // Each client runs until the node goes away under it.
  auto reader = [&](uint64_t seed) {
    auto client = net::Client::Connect(cc);
    if (!client.ok()) {
      violations.fetch_add(1);
      return;
    }
    util::Rng rng(seed);
    uint64_t last_epoch = 0;
    for (;;) {
      net::RecommendRequest req;
      req.user = static_cast<uint32_t>(rng.UniformU64(kNodes));
      req.topic = static_cast<uint32_t>(rng.UniformU64(g.num_topics()));
      req.top_n = 10;
      auto res = client->RecommendEx(req);
      if (!res.ok()) {
        if (!IsShutdown(res.status())) violations.fetch_add(1);
        return;
      }
      bool ok = res->graph_epoch >= last_epoch && res->entries.size() <= 10;
      for (size_t i = 0; i < res->entries.size(); ++i) {
        const util::ScoredId& e = res->entries[i];
        ok = ok && e.id < kNodes && std::isfinite(e.score) && e.score >= 0 &&
             (i == 0 || e.score <= res->entries[i - 1].score);
      }
      if (!ok) violations.fetch_add(1);
      last_epoch = res->graph_epoch;
      replies.fetch_add(1);
    }
  };
  auto mutator = [&] {
    auto client = net::Client::Connect(cc);
    if (!client.ok()) {
      violations.fetch_add(1);
      return;
    }
    util::Rng rng(99);
    uint64_t last_epoch = 0;
    for (;;) {
      const net::MutationRecord record = {
          static_cast<uint32_t>(rng.UniformU64(kNodes)),
          static_cast<uint32_t>(rng.UniformU64(kNodes)),
          uint64_t{1} << rng.UniformU64(g.num_topics())};
      const net::MessageKind kind = rng.Bernoulli(0.7)
                                        ? net::MessageKind::kFollow
                                        : net::MessageKind::kUnfollow;
      auto ack = client->Mutate(kind, {record});
      if (!ack.ok()) {
        if (!IsShutdown(ack.status())) violations.fetch_add(1);
        return;
      }
      if (ack->graph_epoch < last_epoch ||
          ack->applied + ack->rejected != 1) {
        violations.fetch_add(1);
      }
      last_epoch = ack->graph_epoch;
      if (ack->applied == 1) applied_batches.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  clients.emplace_back(reader, 1);
  clients.emplace_back(reader, 2);
  clients.emplace_back(mutator);

  // Let readers, the applier and the running repairer overlap before the
  // node goes away with all three still busy.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((replies.load() < 40 || applied_batches.load() < 3 ||
          node->repairer()->repairs_done() == 0) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(replies.load(), 40u);
  EXPECT_GE(applied_batches.load(), 3u);
  EXPECT_GT(node->repairer()->repairs_done(), 0u);
  node.reset();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace mbr::coord
