// The ISSUE-8 headline oracle: a routed query through the coordinator
// tier must be BYTE-IDENTICAL to the same query against a single-node
// QueryEngine over the full graph — ids, order, and raw score bits — for
// every PartitionStrategy and shard count, in both landmark (scatter-
// gather RECOMMEND_PARTIAL + LANDMARK_FETCH merge) and exact (home-shard
// forwarding) modes. "Byte-identical" is literal: both ranked lists are
// re-encoded with the RESULT codec at fixed epoch, tier and trailer, and
// the encodings must be equal.
//
// A second suite kills a shard out from under the router and checks the
// partial-result policy end to end: the reply degrades (v4 trailer
// partial=1, shards_answered < shards_total), the client call still
// succeeds — never a hang, never a crash — and mbr_coord_partial_total
// is bumped on the router's registry.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/router.h"
#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "distributed/partition.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"

namespace mbr::coord {
namespace {

using distributed::PartitionStrategy;
using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicId;

core::ScoreParams Params() {
  core::ScoreParams p;
  p.beta = 0.1;
  return p;
}

// The shared full-graph state every stack and every reference engine is
// built from (one dataset + one global landmark index for the suite).
struct Corpus {
  Corpus() {
    datagen::TwitterConfig cfg;
    cfg.num_nodes = 260;
    dataset = std::make_unique<datagen::GeneratedDataset>(
        datagen::GenerateTwitter(cfg));
    graph = &dataset->graph;
    authority = std::make_unique<core::AuthorityIndex>(*graph);
    landmark::SelectionConfig sel;
    sel.num_landmarks = 24;
    std::vector<NodeId> landmarks =
        landmark::SelectLandmarks(*graph,
                                  landmark::SelectionStrategy::kOutDeg, sel)
            .landmarks;
    landmark::LandmarkIndexConfig icfg;
    icfg.top_n = 40;
    icfg.params = Params();
    icfg.num_threads = 1;
    index = std::make_unique<landmark::LandmarkIndex>(
        *graph, *authority, topics::TwitterSimilarity(), landmarks, icfg);
  }

  service::EngineConfig EngineConfigFor(bool landmark_mode) const {
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 0;
    ec.params = Params();
    if (landmark_mode) ec.landmarks = index.get();
    return ec;
  }

  std::unique_ptr<datagen::GeneratedDataset> dataset;
  const LabeledGraph* graph = nullptr;
  std::unique_ptr<core::AuthorityIndex> authority;
  std::unique_ptr<landmark::LandmarkIndex> index;
};

const Corpus& SharedCorpus() {
  static const Corpus* corpus = new Corpus();
  return *corpus;
}

// One complete partitioned deployment on loopback: N shard servers over
// ephemeral ports plus a router scatter-gathering across them.
struct Stack {
  ShardPlan plan;
  std::vector<std::unique_ptr<ShardContext>> contexts;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::unique_ptr<Router> router;

  ~Stack() {
    if (router) {
      router->RequestStop();
      router->Wait();
    }
    for (auto& s : servers) {
      if (s) {
        s->RequestStop();
        s->Wait();
      }
    }
  }
};

// `ladder_shard` (when not UINT32_MAX) gives that one shard a degradation
// ladder pinned at the approx rung (approx_at = 0), so its replies carry
// served_tier = 1 deterministically — the tier-merge tests' pressured
// shard. `degrade_partial` feeds RouterConfig::degrade_partial.
std::unique_ptr<Stack> MakeStack(uint32_t shards, PartitionStrategy strategy,
                                 bool landmark_mode, uint32_t halo_depth,
                                 uint32_t ladder_shard = UINT32_MAX,
                                 bool degrade_partial = true) {
  const Corpus& c = SharedCorpus();
  distributed::PartitionConfig pcfg;
  pcfg.num_partitions = shards;
  distributed::Partitioning p = PartitionGraph(*c.graph, strategy, pcfg);
  std::vector<ShardEndpoint> eps(shards);  // ports filled in after bind
  auto stack = std::make_unique<Stack>();
  stack->plan = ShardPlan(std::move(p), strategy, halo_depth,
                          c.graph->num_topics(), std::move(eps));

  for (uint32_t s = 0; s < shards; ++s) {
    service::EngineConfig ec = c.EngineConfigFor(landmark_mode);
    const landmark::LandmarkIndex* idx =
        landmark_mode ? c.index.get() : nullptr;
    if (s == ladder_shard) {
      idx = c.index.get();  // the ladder's middle rung needs landmarks
      ec.degrade.enabled = true;
      ec.degrade.pressure.approx_at = 0;  // pinned at the approx rung
    }
    auto ctx = BuildShardContext(
        *c.graph, topics::TwitterSimilarity(), stack->plan, s, idx, ec);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    if (!ctx.ok()) return nullptr;
    stack->contexts.push_back(std::move(*ctx));
    ShardContext& sc = *stack->contexts.back();
    net::ServerConfig scfg;
    scfg.port = 0;
    scfg.dispatch_threads = 1;
    scfg.shard_owned = &sc.owned;
    scfg.shard_index = sc.index.get();
    scfg.shard = s;
    scfg.shards_total = shards;
    stack->servers.push_back(
        std::make_unique<net::Server>(*sc.engine, scfg));
    EXPECT_TRUE(stack->servers.back()->Start().ok());
    stack->plan.SetEndpoint(s,
                            {"127.0.0.1", stack->servers.back()->port()});
  }

  RouterConfig rcfg;
  rcfg.port = 0;
  rcfg.landmark_mode = landmark_mode;
  rcfg.degrade_partial = degrade_partial;
  rcfg.shard_timeout_ms = 5000;
  stack->router = std::make_unique<Router>(stack->plan, rcfg);
  EXPECT_TRUE(stack->router->Start().ok());
  return stack;
}

util::Result<net::Client> Dial(const Stack& stack) {
  net::ClientConfig cc;
  cc.port = stack.router->port();
  return net::Client::Connect(cc);
}

// Canonical byte encoding of a ranked list: the RESULT codec with the
// epoch, tier and trailer left at their defaults, so only ids, order, and
// raw f64 score bits can differ.
std::vector<uint8_t> CanonicalBytes(const net::RankedList& list) {
  return net::EncodeResult(list);
}

std::vector<net::RecommendRequest> ProbePanel(uint64_t seed, int count) {
  const Corpus& c = SharedCorpus();
  util::Rng rng(seed);
  std::vector<net::RecommendRequest> probes;
  for (int i = 0; i < count; ++i) {
    net::RecommendRequest req;
    req.user = static_cast<uint32_t>(rng.UniformU64(c.graph->num_nodes()));
    req.topic = static_cast<uint32_t>(
        rng.UniformU64(static_cast<uint64_t>(c.graph->num_topics())));
    req.top_n = 10;
    // Every third probe carries an exclusion list so the merge path's
    // RankingBuilder filtering is exercised over the wire too; a sprinkle
    // of (generous) client deadlines exercises the deadline propagation
    // without ever expiring.
    if (i % 3 == 0) {
      for (int k = 0; k < 4; ++k) {
        req.exclude.push_back(
            static_cast<uint32_t>(rng.UniformU64(c.graph->num_nodes())));
      }
    }
    if (i % 4 == 0) req.deadline_ms = 10000;
    probes.push_back(std::move(req));
  }
  return probes;
}

core::Query ToQuery(const net::RecommendRequest& req) {
  core::Query q;
  q.user = req.user;
  q.topic = static_cast<TopicId>(req.topic);
  q.top_n = req.top_n;
  q.exclude.assign(req.exclude.begin(), req.exclude.end());
  return q;
}

void ExpectRoutedMatchesReference(net::Client& client,
                                  service::QueryEngine& reference,
                                  const net::RecommendRequest& req,
                                  const std::string& context) {
  auto routed = client.RecommendEx(req);
  ASSERT_TRUE(routed.ok()) << context << ": " << routed.status().ToString();
  EXPECT_EQ(routed->coord.partial, 0u) << context;
  auto expect = reference.Recommend(ToQuery(req));
  ASSERT_TRUE(expect.ok()) << context << ": " << expect.status().ToString();
  ASSERT_EQ(CanonicalBytes(routed->entries),
            CanonicalBytes(expect->ranking.entries))
      << context << ": routed reply diverged from single-node, user="
      << req.user << " topic=" << req.topic;
}

TEST(CoordDifferentialTest, LandmarkRoutedIsByteIdenticalForEveryStrategy) {
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  for (uint32_t shards : {2u, 4u}) {
    for (auto strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kBfsChunks,
          PartitionStrategy::kCommunity,
          PartitionStrategy::kCommunityPopularity}) {
      const std::string context =
          std::string(distributed::PartitionStrategyName(strategy)) + "/" +
          std::to_string(shards) + " shards";
      auto stack = MakeStack(shards, strategy, /*landmark_mode=*/true,
                             /*halo_depth=*/1);
      ASSERT_NE(stack, nullptr) << context;
      auto client = Dial(*stack);
      ASSERT_TRUE(client.ok()) << context << ": "
                               << client.status().ToString();
      for (const auto& req : ProbePanel(/*seed=*/31 + shards, /*count=*/12)) {
        ExpectRoutedMatchesReference(*client, reference, req, context);
      }
    }
  }
}

TEST(CoordDifferentialTest, ExactForwardingIsByteIdentical) {
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/false));
  // Exact exploration runs to params.max_depth, so the halo must hold
  // every edge within max_depth - 1 hops of an owned node.
  const uint32_t halo = Params().max_depth - 1;
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/false, halo);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const auto& req : ProbePanel(/*seed=*/77, /*count=*/10)) {
    ExpectRoutedMatchesReference(*client, reference, req, "exact/2 shards");
  }
}

TEST(CoordDifferentialTest, BatchRoutedPreservesOrderAndBytes) {
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  auto stack = MakeStack(/*shards=*/3, PartitionStrategy::kBfsChunks,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<net::RecommendRequest> batch = ProbePanel(/*seed=*/5, 8);
  auto routed = client->RecommendBatchEx(batch);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto expect = reference.Recommend(ToQuery(batch[i]));
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ((*routed)[i].coord.partial, 0u) << "batch slot " << i;
    ASSERT_EQ(CanonicalBytes((*routed)[i].entries),
              CanonicalBytes(expect->ranking.entries))
        << "batch slot " << i << " user=" << batch[i].user;
  }
}

TEST(CoordDifferentialTest, RoutedStatsRollupCountsAllShards) {
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kHash,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());
  for (const auto& req : ProbePanel(/*seed=*/9, 4)) {
    auto r = client->RecommendEx(req);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->coord.shards_total, 2u);
  }
  // The STATS rollup answered over the wire sums the shard snapshots.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->shards_total, 2u);
  EXPECT_EQ(stats->shards_up, 2u);
  EXPECT_GE(stats->queries, 4u);
}

TEST(CoordPartialPolicyTest, KilledShardDegradesToPartialNeverFails) {
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());

  // Warm the pool so the kill also exercises dead pooled connections, not
  // just fresh connect refusals.
  auto warm = client->RecommendEx({/*user=*/0, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Kill shard 1.
  stack->servers[1]->RequestStop();
  stack->servers[1]->Wait();

  // A user homed on the dead shard: the reply must degrade to a partial
  // merge — success with partial=1, zero shards answered — not an error,
  // not a hang.
  uint32_t victim = 0;
  while (stack->plan.ShardOf(victim) != 1) ++victim;
  auto partial = client->RecommendEx({victim, /*topic=*/0, /*top_n=*/10});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->coord.partial, 1u);
  EXPECT_LT(partial->coord.shards_answered, partial->coord.shards_total);

  // Users homed on the live shard still answer (possibly partial if one of
  // their landmark fetches was homed on the dead shard).
  uint32_t survivor = 0;
  while (stack->plan.ShardOf(survivor) != 0) ++survivor;
  auto alive = client->RecommendEx({survivor, /*topic=*/1, /*top_n=*/10});
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();

  // The degradation is visible in the mbr_coord_* series.
  obs::Counter* partial_total = stack->router->registry().GetCounter(
      "mbr_coord_partial_total", "");
  ASSERT_NE(partial_total, nullptr);
  EXPECT_GE(partial_total->Value(), 1u);
  obs::Counter* shard_errors = stack->router->registry().GetCounter(
      "mbr_coord_shard_errors_total", "");
  EXPECT_GE(shard_errors->Value(), 1u);
}

TEST(CoordPartialPolicyTest, DegradeOffTurnsShardLossIntoError) {
  // `mbrec route --degrade off`: a lost shard is an ERROR, not a silent
  // partial merge. Exact mode so the surviving shard needs nothing from
  // the dead one.
  const uint32_t halo = Params().max_depth - 1;
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/false, halo,
                         /*ladder_shard=*/UINT32_MAX,
                         /*degrade_partial=*/false);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());

  stack->servers[1]->RequestStop();
  stack->servers[1]->Wait();

  uint32_t victim = 0;
  while (stack->plan.ShardOf(victim) != 1) ++victim;
  auto lost = client->RecommendEx({victim, /*topic=*/0, /*top_n=*/10});
  ASSERT_FALSE(lost.ok()) << "degrade off must fail, not partially merge";

  // The live shard's queries are untouched by the policy.
  uint32_t survivor = 0;
  while (stack->plan.ShardOf(survivor) != 0) ++survivor;
  auto alive = client->RecommendEx({survivor, /*topic=*/0, /*top_n=*/10});
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->coord.partial, 0u);
}

// ---- Protocol v5 tier merge through the router. ----

TEST(CoordTierMergeTest, RoutedTierIsMaxOverContributingShards) {
  // Exact-mode router over one healthy exact shard (0) and one shard
  // pinned at the approx rung (1): the routed reply's tier must be the
  // home shard's tier — 0 or 1 depending on where the user lives — and a
  // batch mixing both homes must carry per-list tiers.
  const uint32_t halo = Params().max_depth - 1;
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/false, halo,
                         /*ladder_shard=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());

  uint32_t on_exact = 0;
  while (stack->plan.ShardOf(on_exact) != 0) ++on_exact;
  uint32_t on_ladder = 0;
  while (stack->plan.ShardOf(on_ladder) != 1) ++on_ladder;

  auto exact = client->RecommendEx({on_exact, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->served_tier, 0u);
  EXPECT_EQ(exact->coord.partial, 0u);

  auto degraded = client->RecommendEx({on_ladder, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->served_tier, 1u)
      << "the throttled shard's tier must survive the merge";
  EXPECT_EQ(degraded->coord.partial, 0u)
      << "tier degradation composes with, not through, the partial trailer";

  std::vector<net::RecommendRequest> batch = {
      {on_exact, 0, 5}, {on_ladder, 0, 5}, {on_exact, 1, 5}};
  auto replies = client->RecommendBatchEx(batch);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  ASSERT_EQ(replies->size(), 3u);
  EXPECT_EQ((*replies)[0].served_tier, 0u);
  EXPECT_EQ((*replies)[1].served_tier, 1u);
  EXPECT_EQ((*replies)[2].served_tier, 0u);

  // The rollup sums the shards' per-tier counters: both tiers appear.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->tier_exact, 3u);
  EXPECT_GE(stats->tier_approx, 2u);
  EXPECT_GE(stats->degraded, 2u);
}

TEST(CoordTierMergeTest, LandmarkRoutedTierIsAtLeastApprox) {
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kHash,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());
  auto r = client->RecommendEx({/*user=*/3, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The merged ranking is the landmark approximation by construction.
  EXPECT_EQ(r->served_tier, 1u);
}

}  // namespace
}  // namespace mbr::coord
