// The degradation ladder (DESIGN.md §6.8), differentially. Tier choice is
// a fidelity policy, never a correctness one, so each rung must be
// byte-identical to the recommender that names it: exact-tier replies to a
// sequential core::TrRecommender, approx-tier replies to a direct
// landmark::ApproxRecommender, and stale-tier replies must reproduce a
// dead generation's bytes while *claiming* the dead epoch — a stale reply
// that claims the fresh epoch is the bug class PR-6 eliminated, resurfaced
// through the ladder.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "coord/serving_node.h"
#include "core/authority.h"
#include "core/recommender.h"
#include "datagen/twitter_generator.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {
namespace {

using core::Tier;
using util::ScoredId;

class LadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::TwitterConfig cfg;
    cfg.num_nodes = 300;
    cfg.seed = 99;
    ds_ = datagen::GenerateTwitter(cfg);
    auth_ = std::make_unique<core::AuthorityIndex>(ds_.graph);

    landmark::SelectionConfig scfg;
    scfg.num_landmarks = 30;
    auto sel = SelectLandmarks(ds_.graph,
                               landmark::SelectionStrategy::kFollow, scfg);
    landmark::LandmarkIndexConfig icfg;
    icfg.top_n = 60;
    index_ = std::make_unique<landmark::LandmarkIndex>(
        ds_.graph, *auth_, topics::TwitterSimilarity(), sel.landmarks, icfg);

    exact_oracle_ = std::make_unique<core::TrRecommender>(
        ds_.graph, topics::TwitterSimilarity(), core::ScoreParams{});
    approx_oracle_ = std::make_unique<landmark::ApproxRecommender>(
        ds_.graph, *auth_, topics::TwitterSimilarity(), *index_,
        landmark::ApproxConfig{});
  }

  // A ladder engine whose pressure watermarks are pinned by the test.
  EngineConfig LadderConfig(uint32_t approx_at, uint32_t stale_at) const {
    EngineConfig ec;
    ec.num_threads = 2;
    ec.cache_capacity = 256;
    ec.landmarks = index_.get();
    ec.degrade.enabled = true;
    ec.degrade.pressure.approx_at = approx_at;
    ec.degrade.pressure.stale_at = stale_at;
    return ec;
  }

  static void ExpectSameBytes(const std::vector<ScoredId>& got,
                              const std::vector<ScoredId>& want,
                              const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
      // Bitwise, not approximate: the tier contract is byte-identity.
      EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
    }
  }

  core::Query Q(uint32_t i) const {
    return core::Query::TopN(
        (i * 17) % ds_.graph.num_nodes(),
        static_cast<topics::TopicId>(i % ds_.graph.num_topics()), 10);
  }

  datagen::GeneratedDataset ds_;
  std::unique_ptr<core::AuthorityIndex> auth_;
  std::unique_ptr<landmark::LandmarkIndex> index_;
  std::unique_ptr<core::TrRecommender> exact_oracle_;
  std::unique_ptr<landmark::ApproxRecommender> approx_oracle_;
};

// Unpressured ladder engine: serves exact, byte-identical to the
// sequential exact recommender, and says so.
TEST_F(LadderTest, UnpressuredServesExactBytes) {
  const auto never = PressureConfig::kNeverDegrade;
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(),
                     LadderConfig(never, never));
  EXPECT_EQ(engine.base_tier(), Tier::kExact);
  EXPECT_TRUE(engine.degrade_enabled());

  for (uint32_t i = 0; i < 12; ++i) {
    core::Query q = Q(i);
    auto r = engine.Recommend(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().meta.served_tier, Tier::kExact);
    ExpectSameBytes(r.value().ranking.entries,
                    exact_oracle_->TopN(q.user, q.topic, q.top_n), "exact");
  }
  EngineStats s = engine.Stats();
  EXPECT_EQ(s.tier_served[0], 12u);
  EXPECT_EQ(s.degraded, 0u);
}

// approx_at = 0 pins the pressure signal at the approx rung: every reply
// must be byte-identical to the direct landmark approximation.
TEST_F(LadderTest, ApproxTierMatchesApproxRecommenderBytes) {
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(),
                     LadderConfig(0, PressureConfig::kNeverDegrade));
  for (uint32_t i = 0; i < 12; ++i) {
    core::Query q = Q(i);
    auto r = engine.Recommend(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().meta.served_tier, Tier::kApprox);
    ExpectSameBytes(r.value().ranking.entries,
                    approx_oracle_->TopN(q.user, q.topic, q.top_n), "approx");
  }
  EngineStats s = engine.Stats();
  EXPECT_EQ(s.tier_served[1], 12u);
  EXPECT_EQ(s.degraded, 12u);  // every reply was below the exact base tier
}

// The stale rung: after Invalidate() the dead generation's bytes are
// served — claiming the dead epoch, never the fresh one.
TEST_F(LadderTest, StaleReplyClaimsDeadEpochWithDeadGenerationBytes) {
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(),
                     LadderConfig(0, 0));  // always at the stale rung
  core::Query q = Q(7);

  auto warm = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value().meta.graph_epoch, 0u);
  const std::vector<ScoredId> dead_bytes = warm.value().ranking.entries;

  engine.Invalidate();
  ASSERT_EQ(engine.params_epoch(), 1u);

  auto stale = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale.value().meta.served_tier, Tier::kStale);
  EXPECT_TRUE(stale.value().meta.cache_hit);
  // The claim is the dead generation's epoch, with its age spelled out.
  EXPECT_EQ(stale.value().meta.graph_epoch, 0u);
  EXPECT_EQ(stale.value().meta.stale_age_epochs, 1u);
  EXPECT_LT(stale.value().meta.graph_epoch, engine.params_epoch());
  ExpectSameBytes(stale.value().ranking.entries, dead_bytes, "stale");

  EXPECT_EQ(engine.Stats().tier_served[2], 1u);
}

// Generations older than stale_keep_epochs are purged: the stale rung
// cannot serve arbitrarily old bytes.
TEST_F(LadderTest, StaleInventoryIsBoundedByKeepEpochs) {
  EngineConfig ec = LadderConfig(0, 0);
  ec.degrade.stale_keep_epochs = 2;
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);
  core::Query q = Q(9);

  auto warm = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(warm.ok());

  // Push the epoch-0 entry past the keep window.
  engine.Invalidate();
  engine.Invalidate();
  engine.Invalidate();
  ASSERT_EQ(engine.params_epoch(), 3u);

  auto r = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The epoch-0 generation is gone, so the ladder scored instead: the
  // reply is fresh (and not a stale claim of a purged generation).
  EXPECT_NE(r.value().meta.served_tier, Tier::kStale);
  EXPECT_EQ(r.value().meta.graph_epoch, 3u);
}

// Without the ladder an engine keeps its single-tier identity: a
// landmark-only engine is kApprox on every reply; the ladder off means no
// stale service even with dead generations cached.
TEST_F(LadderTest, LandmarkOnlyEngineAlwaysReportsApprox) {
  EngineConfig ec;
  ec.num_threads = 2;
  ec.cache_capacity = 64;
  ec.landmarks = index_.get();
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);
  EXPECT_EQ(engine.base_tier(), Tier::kApprox);
  EXPECT_FALSE(engine.degrade_enabled());

  core::Query q = Q(2);
  auto miss = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value().meta.served_tier, Tier::kApprox);
  EXPECT_FALSE(miss.value().meta.cache_hit);

  auto hit = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().meta.served_tier, Tier::kApprox);
  EXPECT_TRUE(hit.value().meta.cache_hit);
  // base-tier replies are not "degraded".
  EXPECT_EQ(engine.Stats().degraded, 0u);

  engine.Invalidate();
  auto after = engine.Recommend(core::Query::TopN(q.user, q.topic, q.top_n));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().meta.served_tier, Tier::kApprox);
  EXPECT_FALSE(after.value().meta.cache_hit);  // no stale tier: rescored
  EXPECT_EQ(after.value().meta.graph_epoch, engine.params_epoch());
}

// Stale-tier repair stamping: a query that consults landmark lists while
// some slot is marked-but-unrepaired must answer at kStale, not pretend
// the approximation is current; an inline Quiesce() restores kApprox.
TEST_F(LadderTest, UnrepairedLandmarksStampStaleTier) {
  coord::NodeConfig nc;
  nc.graph = ds_.graph;
  nc.index = *index_;
  nc.engine.num_threads = 1;
  nc.engine.cache_capacity = 64;
  nc.mutable_serving = true;
  auto node = coord::ServingNode::Build(std::move(nc));
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  QueryEngine& engine = (*node)->engine();
  ASSERT_EQ(engine.base_tier(), Tier::kApprox);

  MutationApplier& applier = *(*node)->applier();
  LandmarkRepairer& repairer = *(*node)->repairer();
  // No Start(): the marks stay unrepaired until the explicit Quiesce().

  // Apply one follow the base graph does not already have.
  MutationOutcome out;
  for (graph::NodeId dst = 1; dst < ds_.graph.num_nodes(); ++dst) {
    Mutation m;
    m.op = MutationOp::kFollow;
    m.src = 0;
    m.dst = dst;
    m.labels = topics::TopicSet::Single(0);
    out = applier.Apply(std::span<const Mutation>(&m, 1));
    if (out.applied == 1) break;
  }
  ASSERT_EQ(out.applied, 1u);
  ASSERT_GT(repairer.stale_count(), 0u);

  core::Query q = Q(3);
  auto stale = engine.Recommend(q);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale.value().meta.served_tier, Tier::kStale);

  // A partial repair leaves the other slots stale, so a freshly scored
  // reply must still claim the stale tier.
  const size_t stale_before = repairer.stale_count();
  EXPECT_EQ(repairer.RepairStale(1).size(), 1u);
  EXPECT_EQ(repairer.stale_count(), stale_before - 1);
  EXPECT_EQ(repairer.stale_count(), 29u);  // all 30 slots marked, one repaired
  auto partial = engine.Recommend(q);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_FALSE(partial.value().meta.cache_hit);  // repair bumped the epoch
  EXPECT_EQ(partial.value().meta.served_tier, Tier::kStale);

  repairer.Quiesce();  // no thread running: repairs inline, deterministic
  EXPECT_EQ(repairer.stale_count(), 0u);
  auto fresh = engine.Recommend(q);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().meta.served_tier, Tier::kApprox);
  EXPECT_FALSE(fresh.value().meta.cache_hit);  // repair bumped the epoch
}

}  // namespace
}  // namespace mbr::service
