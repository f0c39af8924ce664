// Cache keying / epoch invalidation: an applied mutation batch must bump
// the engine's params epoch (MutationApplier publishes the new
// generation), force the next identical query to miss the cache, and serve
// results that reflect the new edge; a batch that applies nothing bumps
// nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicId;
using topics::TopicSet;

constexpr TopicId kTopic = 0;

// 0 -> 1 -> 2; node 3 exists but is unreachable until the dynamic path
// inserts 1 -> 3.
LabeledGraph BaseGraph() {
  GraphBuilder b(4, 4);
  b.AddEdge(0, 1, TopicSet::Single(kTopic));
  b.AddEdge(1, 2, TopicSet::Single(kTopic));
  b.AddEdge(3, 2, TopicSet::Single(kTopic));  // 3 publishes, gains authority
  return std::move(b).Build();
}

EngineConfig CachedConfig() {
  EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 64;
  ec.params.beta = 0.1;  // visible scores on a 3-hop graph
  return ec;
}

TEST(ServiceCacheTest, RepeatQueryHitsCache) {
  LabeledGraph g = BaseGraph();
  core::AuthorityIndex auth(g);
  QueryEngine engine(g, auth, topics::TwitterSimilarity(), CachedConfig());

  auto first = engine.TopN(0, kTopic, 5).value();
  auto second = engine.TopN(0, kTopic, 5).value();
  EXPECT_EQ(first, second);
  EngineStats s = engine.Stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
}

TEST(ServiceCacheTest, DifferentTopNIsADifferentCacheEntry) {
  LabeledGraph g = BaseGraph();
  core::AuthorityIndex auth(g);
  QueryEngine engine(g, auth, topics::TwitterSimilarity(), CachedConfig());
  engine.TopN(0, kTopic, 5);
  engine.TopN(0, kTopic, 1);  // must not be served from the n=5 entry
  EXPECT_EQ(engine.Stats().cache_misses, 2u);
  EXPECT_EQ(engine.TopN(0, kTopic, 1).value().size(), 1u);
}

TEST(ServiceCacheTest, DynamicInsertionInvalidatesAndNewEdgeIsServed) {
  LabeledGraph base = BaseGraph();
  core::AuthorityIndex auth(base);
  QueryEngine engine(base, auth, topics::TwitterSimilarity(),
                     CachedConfig());

  MutationApplier applier(base, auth, engine);

  auto before = engine.TopN(0, kTopic, 5).value();
  for (const auto& r : before) EXPECT_NE(r.id, 3u);  // 3 unreachable
  engine.TopN(0, kTopic, 5);
  ASSERT_EQ(engine.Stats().cache_hits, 1u);
  const uint64_t epoch_before = engine.params_epoch();

  // The churn: 1 -> 3 appears, and the engine serves the new generation.
  const Mutation follow{MutationOp::kFollow, 1, 3, TopicSet::Single(kTopic)};
  MutationOutcome out = applier.Apply(std::span<const Mutation>(&follow, 1));
  ASSERT_EQ(out.applied, 1u);
  EXPECT_EQ(out.graph_epoch, epoch_before + 1);
  EXPECT_EQ(engine.params_epoch(), epoch_before + 1);
  EXPECT_EQ(engine.Stats().invalidations, 1u);

  auto after = engine.TopN(0, kTopic, 5).value();
  EngineStats s = engine.Stats();
  // The repeat of a previously-cached query must MISS: its epoch changed.
  EXPECT_EQ(s.cache_hits, 1u);
  bool found = false;
  for (const auto& r : after) found = found || r.id == 3u;
  EXPECT_TRUE(found) << "freshly inserted edge 1->3 not reflected";
}

TEST(ServiceCacheTest, InvalidateAloneForcesMissButSameResult) {
  LabeledGraph g = BaseGraph();
  core::AuthorityIndex auth(g);
  QueryEngine engine(g, auth, topics::TwitterSimilarity(), CachedConfig());
  auto a = engine.TopN(0, kTopic, 5).value();
  engine.Publish({});
  auto b = engine.TopN(0, kTopic, 5).value();
  EXPECT_EQ(a, b);  // same graph, same params -> identical list
  EngineStats s = engine.Stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 2u);
}

// Dead-epoch purge regression (ISSUE 7 satellite). Before the fix, an
// epoch bump left entries keyed under dead epochs unreachable yet still
// occupying LRU capacity until ordinary eviction got to them. Every
// Publish() now sweeps them out eagerly; the purge is observable through
// the engine's mbr_engine_cache_purged_total counter.
TEST(ServiceCacheTest, InvalidatePurgesDeadEpochEntries) {
  LabeledGraph g = BaseGraph();
  core::AuthorityIndex auth(g);
  QueryEngine engine(g, auth, topics::TwitterSimilarity(), CachedConfig());
  obs::Counter* purged = engine.registry().GetCounter(
      "mbr_engine_cache_purged_total", "");

  // Populate 6 distinct entries under the current epoch.
  for (NodeId u = 0; u < 3; ++u) {
    engine.TopN(u, kTopic, 5);
    engine.TopN(u, kTopic, 2);
  }
  ASSERT_EQ(engine.Stats().cache_misses, 6u);
  ASSERT_EQ(purged->Value(), 0u);

  // The epoch bump must evict all 6 now-unreachable entries at once.
  engine.Publish({});
  EXPECT_EQ(purged->Value(), 6u);

  // Entries cached after the bump are live: a second invalidation purges
  // exactly those, never double-counting the already-swept generation.
  engine.TopN(0, kTopic, 5);
  engine.TopN(1, kTopic, 5);
  engine.Publish({});
  EXPECT_EQ(purged->Value(), 8u);

  // An invalidation with an empty cache purges nothing.
  engine.Publish({});
  EXPECT_EQ(purged->Value(), 8u);

  // The cache still serves normally after the sweeps.
  auto a = engine.TopN(0, kTopic, 5).value();
  auto b = engine.TopN(0, kTopic, 5).value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(engine.Stats().cache_hits, 1u);
}

TEST(ServiceCacheTest, RemovalInvalidatesButRejectedBatchDoesNot) {
  LabeledGraph base = BaseGraph();
  core::AuthorityIndex auth(base);
  QueryEngine engine(base, auth, topics::TwitterSimilarity(),
                     CachedConfig());
  MutationApplier applier(base, auth, engine);
  const Mutation unfollow{MutationOp::kUnfollow, 1, 2, {}};
  const std::span<const Mutation> batch(&unfollow, 1);
  ASSERT_EQ(applier.Apply(batch).applied, 1u);
  EXPECT_EQ(engine.Stats().invalidations, 1u);
  const uint64_t epoch = engine.params_epoch();
  // The edge is gone: the same batch is rejected and bumps nothing.
  MutationOutcome again = applier.Apply(batch);
  EXPECT_EQ(again.applied, 0u);
  EXPECT_EQ(again.rejected, 1u);
  EXPECT_EQ(engine.Stats().invalidations, 1u);
  EXPECT_EQ(engine.params_epoch(), epoch);
}

// ---------- Epoch-claim integrity (ISSUE 6 satellite regression) ----------
//
// A reply's graph_epoch is a claim: "this ranking was computed against the
// graph at that epoch". The bug class under test: the engine reads its
// epoch once at admission, a publish lands before the worker scores, and
// the result (computed on the NEW graph) is cached under — or stamped
// with — the OLD epoch, so a later cache hit serves a ranking whose claim
// and content disagree. The fix stamps and caches each scored result with
// the epoch of the generation the worker pinned, and cache hits stamp the
// lookup epoch (key equality makes it the insert epoch).

TEST(ServiceCacheTest, EpochClaimMatchesGraphAcrossRebind) {
  LabeledGraph base = BaseGraph();
  core::AuthorityIndex auth(base);
  QueryEngine engine(base, auth, topics::TwitterSimilarity(),
                     CachedConfig());

  auto r0 = engine.Recommend(core::Query::TopN(0, kTopic, 5));
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0.value().meta.graph_epoch, 0u);

  // A cache hit claims the epoch its entry was computed at.
  auto r0_hit = engine.Recommend(core::Query::TopN(0, kTopic, 5));
  ASSERT_TRUE(r0_hit.ok());
  EXPECT_EQ(r0_hit.value().meta.graph_epoch, 0u);
  ASSERT_EQ(engine.Stats().cache_hits, 1u);

  // Publish a graph where node 3 is reachable: epoch moves, and the
  // repeat query must both miss and carry the new epoch.
  dynamic::DeltaGraph delta(&base);
  ASSERT_TRUE(delta.AddEdge(1, 3, TopicSet::Single(kTopic)));
  GenerationChange next;
  next.graph = std::make_shared<const LabeledGraph>(delta.Materialize());
  next.authority = std::make_shared<const core::AuthorityIndex>(*next.graph);
  engine.Publish(std::move(next));
  const uint64_t e1 = engine.params_epoch();
  EXPECT_GT(e1, 0u);

  auto r1 = engine.Recommend(core::Query::TopN(0, kTopic, 5));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().meta.graph_epoch, e1);
  bool found = false;
  for (const auto& e : r1.value().ranking.entries) found = found || e.id == 3u;
  EXPECT_TRUE(found) << "epoch " << e1 << " ranking must reflect epoch-"
                     << e1 << " graph";

  // And the hit on the new entry claims the new epoch, not the old one.
  auto r1_hit = engine.Recommend(core::Query::TopN(0, kTopic, 5));
  ASSERT_TRUE(r1_hit.ok());
  EXPECT_EQ(r1_hit.value().meta.graph_epoch, e1);
}

TEST(ServiceCacheTest, HammeredRebindsNeverYieldMismatchedEpochClaim) {
  // Readers race a publisher that alternates between two graphs whose
  // rankings differ detectably (node 3 reachable iff generation is odd).
  // Every reply must satisfy: epoch parity determines ranking content.
  // Cache on, so hits, misses, and publishes interleave freely.
  GenerationChange base;
  base.graph = std::make_shared<const LabeledGraph>(BaseGraph());
  base.authority = std::make_shared<const core::AuthorityIndex>(*base.graph);
  dynamic::DeltaGraph delta(base.graph.get());
  ASSERT_TRUE(delta.AddEdge(1, 3, TopicSet::Single(kTopic)));
  GenerationChange with_edge;
  with_edge.graph = std::make_shared<const LabeledGraph>(delta.Materialize());
  with_edge.authority =
      std::make_shared<const core::AuthorityIndex>(*with_edge.graph);

  EngineConfig ec = CachedConfig();
  ec.num_threads = 2;
  QueryEngine engine(*base.graph, *base.authority,
                     topics::TwitterSimilarity(), ec);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&engine, &stop, &violations] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto res = engine.Recommend(core::Query::TopN(0, kTopic, 5));
        if (!res.ok()) continue;
        const service::Response& rk = res.value();
        // Epochs never run backwards within one reader.
        if (rk.meta.graph_epoch < last_epoch) violations.fetch_add(1);
        last_epoch = rk.meta.graph_epoch;
        bool has3 = false;
        for (const auto& e : rk.ranking.entries) has3 = has3 || e.id == 3u;
        // Even epochs are the base graph (3 unreachable), odd epochs the
        // with-edge graph — the claim must match the content.
        if (has3 != (rk.meta.graph_epoch % 2 == 1)) violations.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 60; ++round) {
    engine.Publish(round % 2 == 0 ? with_edge : base);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u)
      << "a reply claimed an epoch whose graph does not match its ranking";
}

}  // namespace
}  // namespace mbr::service
