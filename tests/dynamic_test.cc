#include "dynamic/churn.h"
#include "dynamic/delta_graph.h"
#include "dynamic/incremental_authority.h"

#include <gtest/gtest.h>

#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "graph/labeled_graph.h"
#include "util/rng.h"

namespace mbr::dynamic {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicSet;

TopicSet Ts(std::initializer_list<topics::TopicId> ids) {
  TopicSet s;
  for (auto t : ids) s.Add(t);
  return s;
}

LabeledGraph MakeBase() {
  GraphBuilder b(5, 4);
  b.SetNodeLabels(0, Ts({0}));
  b.SetNodeLabels(1, Ts({0, 1}));
  b.SetNodeLabels(2, Ts({1}));
  b.AddEdge(0, 1, Ts({0}));
  b.AddEdge(0, 2, Ts({1}));
  b.AddEdge(1, 2, Ts({1}));
  b.AddEdge(2, 3, Ts({2}));
  return std::move(b).Build();
}

// ---------- DeltaGraph ----------

TEST(DeltaGraphTest, StartsEqualToBase) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  EXPECT_EQ(d.num_edges(), base.num_edges());
  EXPECT_TRUE(d.HasEdge(0, 1));
  EXPECT_EQ(d.EdgeLabels(0, 2), Ts({1}));
  EXPECT_EQ(d.OutDegree(0), 2u);
  EXPECT_EQ(d.InDegree(2), 2u);
}

TEST(DeltaGraphTest, AddEdge) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  EXPECT_TRUE(d.AddEdge(3, 4, Ts({3})));
  EXPECT_TRUE(d.HasEdge(3, 4));
  EXPECT_EQ(d.EdgeLabels(3, 4), Ts({3}));
  EXPECT_EQ(d.num_edges(), base.num_edges() + 1);
  EXPECT_EQ(d.OutDegree(3), 1u);
  EXPECT_EQ(d.InDegree(4), 1u);
  // Duplicates and self-loops are rejected.
  EXPECT_FALSE(d.AddEdge(3, 4, Ts({0})));
  EXPECT_FALSE(d.AddEdge(0, 1, Ts({0})));
  EXPECT_FALSE(d.AddEdge(2, 2, Ts({0})));
}

TEST(DeltaGraphTest, RemoveBaseEdge) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  EXPECT_TRUE(d.RemoveEdge(0, 1));
  EXPECT_FALSE(d.HasEdge(0, 1));
  EXPECT_TRUE(d.EdgeLabels(0, 1).empty());
  EXPECT_EQ(d.num_edges(), base.num_edges() - 1);
  EXPECT_EQ(d.OutDegree(0), 1u);
  EXPECT_EQ(d.InDegree(1), 0u);
  EXPECT_FALSE(d.RemoveEdge(0, 1));  // already gone
  EXPECT_FALSE(d.RemoveEdge(4, 0));  // never existed
}

TEST(DeltaGraphTest, RemoveOverlayEdge) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  d.AddEdge(3, 4, Ts({3}));
  EXPECT_TRUE(d.RemoveEdge(3, 4));
  EXPECT_FALSE(d.HasEdge(3, 4));
  EXPECT_EQ(d.num_edges(), base.num_edges());
  EXPECT_EQ(d.InDegree(4), 0u);
}

TEST(DeltaGraphTest, ReAddRemovedBaseEdgeWithNewLabels) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  EXPECT_TRUE(d.RemoveEdge(0, 1));
  EXPECT_TRUE(d.AddEdge(0, 1, Ts({2})));
  EXPECT_TRUE(d.HasEdge(0, 1));
  EXPECT_EQ(d.EdgeLabels(0, 1), Ts({2}));  // new interest, not the old one
  EXPECT_EQ(d.num_edges(), base.num_edges());
  EXPECT_EQ(d.InDegree(1), 1u);
}

TEST(DeltaGraphTest, ForEachOutNeighborSeesLiveEdges) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  d.RemoveEdge(0, 2);
  d.AddEdge(0, 3, Ts({2}));
  std::vector<NodeId> seen;
  d.ForEachOutNeighbor(0, [&](NodeId v, TopicSet) { seen.push_back(v); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<NodeId>{1, 3}));
}

TEST(DeltaGraphTest, MaterializeMatchesOverlay) {
  LabeledGraph base = MakeBase();
  DeltaGraph d(&base);
  d.RemoveEdge(1, 2);
  d.AddEdge(4, 0, Ts({0}));
  d.AddEdge(3, 1, Ts({1}));
  LabeledGraph m = d.Materialize();
  EXPECT_EQ(m.num_edges(), d.num_edges());
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    EXPECT_EQ(m.NodeLabels(u), base.NodeLabels(u));
    d.ForEachOutNeighbor(u, [&](NodeId v, TopicSet labels) {
      EXPECT_TRUE(m.HasEdge(u, v));
      EXPECT_EQ(m.EdgeLabels(u, v), labels);
    });
  }
  EXPECT_FALSE(m.HasEdge(1, 2));
}

// ---------- IncrementalAuthority ----------

TEST(IncrementalAuthorityTest, MatchesStaticIndexInitially) {
  datagen::TwitterConfig c;
  c.num_nodes = 600;
  auto ds = datagen::GenerateTwitter(c);
  core::AuthorityIndex fresh(ds.graph);
  IncrementalAuthority inc(ds.graph);
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    for (int t = 0; t < ds.num_topics; ++t) {
      ASSERT_NEAR(inc.Authority(v, static_cast<topics::TopicId>(t)),
                  fresh.Authority(v, static_cast<topics::TopicId>(t)), 1e-12);
    }
  }
}

TEST(IncrementalAuthorityTest, TracksEdgeChangesExactly) {
  // After arbitrary churn + RefreshMax, incremental authority must equal a
  // fresh index built on the materialised graph.
  datagen::TwitterConfig c;
  c.num_nodes = 600;
  auto ds = datagen::GenerateTwitter(c);
  DeltaGraph overlay(&ds.graph);
  IncrementalAuthority inc(ds.graph);
  util::Rng rng(5);
  ChurnConfig churn;
  churn.unfollow_fraction = 0.08;
  churn.follow_fraction = 0.08;
  ChurnRound changes = ApplyChurnRound(&overlay, &inc, churn, &rng);
  EXPECT_FALSE(changes.removed.empty());
  EXPECT_FALSE(changes.added.empty());

  inc.RefreshMax();
  LabeledGraph materialised = overlay.Materialize();
  core::AuthorityIndex fresh(materialised);
  for (NodeId v = 0; v < materialised.num_nodes(); ++v) {
    for (int t = 0; t < ds.num_topics; ++t) {
      ASSERT_NEAR(inc.Authority(v, static_cast<topics::TopicId>(t)),
                  fresh.Authority(v, static_cast<topics::TopicId>(t)), 1e-12)
          << "v=" << v << " t=" << t;
    }
  }
}

TEST(IncrementalAuthorityTest, MaxIsUpperBoundBetweenRefreshes) {
  LabeledGraph base = MakeBase();
  IncrementalAuthority inc(base);
  uint32_t max_before = inc.MaxFollowersOnTopic(1);
  // Remove the only topic-1 labeled edges: the stored max goes stale high.
  inc.OnEdgeRemoved(0, 2, Ts({1}));
  inc.OnEdgeRemoved(1, 2, Ts({1}));
  EXPECT_EQ(inc.MaxFollowersOnTopic(1), max_before);  // stale upper bound
  inc.RefreshMax();
  EXPECT_EQ(inc.MaxFollowersOnTopic(1), 0u);
}

TEST(IncrementalAuthorityTest, AdditionRaisesAuthority) {
  LabeledGraph base = MakeBase();
  IncrementalAuthority inc(base);
  // Node 2 has only topic-1 followers: no authority on topic 0 yet.
  EXPECT_DOUBLE_EQ(inc.Authority(2, 0), 0.0);
  inc.OnEdgeAdded(3, 2, Ts({0}));
  EXPECT_GT(inc.Authority(2, 0), 0.0);
  // And gaining an off-topic follower dilutes the topic-1 local authority.
  double t1_before = inc.Authority(2, 1);
  inc.OnEdgeAdded(4, 2, Ts({3}));
  EXPECT_LT(inc.Authority(2, 1), t1_before);
}


TEST(IncrementalAuthorityTest, StaysExactAcrossManyChurnRounds) {
  datagen::TwitterConfig c;
  c.num_nodes = 500;
  auto ds = datagen::GenerateTwitter(c);
  DeltaGraph overlay(&ds.graph);
  IncrementalAuthority inc(ds.graph);
  util::Rng rng(77);
  ChurnConfig churn;
  for (int round = 0; round < 4; ++round) {
    ApplyChurnRound(&overlay, &inc, churn, &rng);
  }
  inc.RefreshMax();
  LabeledGraph current = overlay.Materialize();
  core::AuthorityIndex fresh(current);
  for (NodeId v = 0; v < current.num_nodes(); ++v) {
    for (int t = 0; t < ds.num_topics; ++t) {
      ASSERT_NEAR(inc.Authority(v, static_cast<topics::TopicId>(t)),
                  fresh.Authority(v, static_cast<topics::TopicId>(t)), 1e-12)
          << "v=" << v << " t=" << t;
    }
  }
}

TEST(DeltaGraphTest, MaterializeOfUntouchedOverlayEqualsBase) {
  datagen::TwitterConfig c;
  c.num_nodes = 400;
  auto ds = datagen::GenerateTwitter(c);
  DeltaGraph overlay(&ds.graph);
  LabeledGraph m = overlay.Materialize();
  ASSERT_EQ(m.num_edges(), ds.graph.num_edges());
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    auto a = ds.graph.OutNeighbors(u);
    auto b = m.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]);
      ASSERT_EQ(ds.graph.OutEdgeLabels(u)[i], m.OutEdgeLabels(u)[i]);
    }
  }
}

// ---------- Churn workload ----------

TEST(ChurnTest, PreservesEdgeCountApproximately) {
  datagen::TwitterConfig c;
  c.num_nodes = 1000;
  auto ds = datagen::GenerateTwitter(c);
  DeltaGraph overlay(&ds.graph);
  util::Rng rng(9);
  ChurnConfig churn;  // 5% + 5%
  uint64_t before = overlay.num_edges();
  ApplyChurnRound(&overlay, nullptr, churn, &rng);
  double ratio = static_cast<double>(overlay.num_edges()) /
                 static_cast<double>(before);
  EXPECT_GT(ratio, 0.97);
  EXPECT_LT(ratio, 1.03);
}

TEST(ChurnTest, AddedEdgesAreLabeledAndValid) {
  datagen::TwitterConfig c;
  c.num_nodes = 1000;
  auto ds = datagen::GenerateTwitter(c);
  DeltaGraph overlay(&ds.graph);
  util::Rng rng(10);
  ChurnConfig churn;
  ChurnRound changes = ApplyChurnRound(&overlay, nullptr, churn, &rng);
  ASSERT_FALSE(changes.added.empty());
  for (const EdgeChange& e : changes.added) {
    EXPECT_TRUE(overlay.HasEdge(e.src, e.dst));
    EXPECT_EQ(overlay.EdgeLabels(e.src, e.dst), e.labels);
    EXPECT_NE(e.src, e.dst);
    EXPECT_FALSE(e.labels.empty());
    // Labels make sense: the publisher actually posts on them.
    EXPECT_FALSE(
        e.labels.Intersect(ds.graph.NodeLabels(e.dst)).empty());
  }
}

TEST(ChurnTest, DeterministicGivenSeed) {
  datagen::TwitterConfig c;
  c.num_nodes = 800;
  auto ds = datagen::GenerateTwitter(c);
  DeltaGraph o1(&ds.graph), o2(&ds.graph);
  util::Rng r1(3), r2(3);
  ChurnConfig churn;
  ChurnRound c1 = ApplyChurnRound(&o1, nullptr, churn, &r1);
  ChurnRound c2 = ApplyChurnRound(&o2, nullptr, churn, &r2);
  EXPECT_EQ(o1.num_edges(), o2.num_edges());
  EXPECT_FALSE(c1.removed.empty());
  EXPECT_TRUE(c1.removed == c2.removed);
  EXPECT_TRUE(c1.added == c2.added);
}

}  // namespace
}  // namespace mbr::dynamic
