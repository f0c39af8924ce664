// Landmark maintenance under churn: LandmarkIndex::RefreshLandmark (the
// repair unit) and service::LandmarkRepairer — every applied batch marks
// every slot stale before it is published, a batch with no applied record
// marks nothing, and the stale slot with the oldest lists is repaired
// first, ties by slot id.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "coord/serving_node.h"
#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "dynamic/delta_graph.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr {
namespace {

using graph::NodeId;

struct Fixture {
  datagen::GeneratedDataset ds = [] {
    datagen::TwitterConfig c;
    c.num_nodes = 1200;
    return datagen::GenerateTwitter(c);
  }();
  core::AuthorityIndex auth{ds.graph};
  landmark::SelectionResult sel = SelectLandmarks(
      ds.graph, landmark::SelectionStrategy::kFollow, [] {
        landmark::SelectionConfig c;
        c.num_landmarks = 20;
        return c;
      }());

  // The fixture's index, built on the base graph or on a later generation.
  landmark::LandmarkIndex MakeIndex() { return MakeIndex(ds.graph, auth); }
  landmark::LandmarkIndex MakeIndex(const graph::LabeledGraph& g,
                                    const core::AuthorityIndex& a) {
    landmark::LandmarkIndexConfig icfg;
    icfg.top_n = 30;
    return landmark::LandmarkIndex(g, a, topics::TwitterSimilarity(),
                                   sel.landmarks, icfg);
  }
};

TEST(RefreshLandmarkTest, RecomputesOnUpdatedGraph) {
  Fixture f;
  landmark::LandmarkIndex index = f.MakeIndex();
  NodeId lm = f.sel.landmarks[0];

  // Heavy local churn around the landmark: remove all its out-edges.
  dynamic::DeltaGraph overlay(&f.ds.graph);
  for (NodeId v : f.ds.graph.OutNeighbors(lm)) overlay.RemoveEdge(lm, v);
  graph::LabeledGraph current = overlay.Materialize();
  core::AuthorityIndex fresh_auth(current);

  index.RefreshLandmark(lm, current, fresh_auth,
                        topics::TwitterSimilarity());
  // The landmark lost all outgoing paths: its stored lists must be empty.
  for (int t = 0; t < current.num_topics(); ++t) {
    EXPECT_TRUE(
        index.Recommendations(lm, static_cast<topics::TopicId>(t)).empty());
  }
  // Other landmarks keep their (stale) lists.
  bool any_nonempty = false;
  for (size_t i = 1; i < f.sel.landmarks.size(); ++i) {
    for (int t = 0; t < current.num_topics(); ++t) {
      any_nonempty |= !index
                           .Recommendations(f.sel.landmarks[i],
                                            static_cast<topics::TopicId>(t))
                           .empty();
    }
  }
  EXPECT_TRUE(any_nonempty);
}

// A mutable serving node over a copy of the fixture's graph and a fresh
// copy of its index. The node is never started, so RepairStale() and
// Quiesce() run on the test thread.
class RepairStack {
 public:
  explicit RepairStack(Fixture& f) : f_(f) {
    coord::NodeConfig nc;
    nc.graph = f.ds.graph;
    nc.index = f.MakeIndex();
    nc.engine.num_threads = 1;
    nc.mutable_serving = true;
    node_ = coord::ServingNode::Build(std::move(nc)).value();
  }

  // Applies `m` as a one-record batch and returns how many records applied.
  uint32_t Apply(const service::Mutation& m) {
    return node_->applier()
        ->Apply(std::span<const service::Mutation>(&m, 1))
        .applied;
  }

  // Applies FOLLOW src -> dst as a one-record batch.
  bool Follow(NodeId src, NodeId dst) {
    return Apply({service::MutationOp::kFollow, src, dst,
                  topics::TopicSet::Single(0)}) == 1;
  }

  // Applies one FOLLOW from `src` the live graph does not have yet.
  void FollowSomeone(NodeId src) {
    for (NodeId dst = 0; dst < f_.ds.graph.num_nodes(); ++dst) {
      if (dst != src && Follow(src, dst)) return;
    }
    FAIL() << "node " << src << " already follows everyone";
  }

  const std::vector<NodeId>& landmarks() const {
    return node_->index()->landmarks();
  }
  service::QueryEngine& engine() { return node_->engine(); }
  service::LandmarkRepairer& repairer() { return *node_->repairer(); }

  // Whether the live index serializes to the bytes of an index built from
  // scratch on the applier's current generation.
  bool MatchesFreshBuild() {
    service::MutationApplier& applier = *node_->applier();
    landmark::LandmarkIndex fresh =
        f_.MakeIndex(*applier.current_graph(), *applier.current_authority());
    return node_->index()->Serialize() == fresh.Serialize();
  }

  // Nodes that are neither landmarks nor on any stored list. A mutation
  // touching only these still changes stored lists: a FOLLOW u -> v adds
  // paths through u and moves v's authority anywhere in a landmark's
  // exploration.
  std::vector<NodeId> UnwatchedNodes() const {
    const landmark::LandmarkIndex& index = *node_->index();
    std::vector<bool> watched(f_.ds.graph.num_nodes(), false);
    for (NodeId lm : landmarks()) {
      watched[lm] = true;
      for (int t = 0; t < index.num_topics(); ++t) {
        for (const landmark::StoredRec& rec : index.Recommendations(
                 lm, static_cast<topics::TopicId>(t))) {
          watched[rec.node] = true;
        }
      }
    }
    std::vector<NodeId> out;
    for (NodeId v = 0; v < watched.size(); ++v) {
      if (!watched[v]) out.push_back(v);
    }
    return out;
  }

 private:
  Fixture& f_;
  std::unique_ptr<coord::ServingNode> node_;
};

// Every batch marks every slot, so the oldest lists are always those of
// the slots not yet repaired: one repair per round walks the landmarks in
// slot order, each exactly once. Repairing the lowest stale slot instead
// would pick landmarks[0] every round.
TEST(LandmarkRepairerScheduleTest, AllModeRoundsRepairEachLandmarkInOrder) {
  Fixture f;
  RepairStack stack(f);
  const size_t slots = stack.landmarks().size();
  std::vector<NodeId> order;
  for (size_t round = 0; round < slots; ++round) {
    stack.FollowSomeone(static_cast<NodeId>(round));
    ASSERT_EQ(stack.repairer().stale_count(), slots);
    std::vector<NodeId> repaired = stack.repairer().RepairStale(1);
    ASSERT_EQ(repaired.size(), 1u);
    order.push_back(repaired[0]);
  }
  EXPECT_EQ(order, stack.landmarks());
}

// A FOLLOW between two nodes on no stored list still changes every
// landmark's exploration (new paths through the follower, new authority
// for the followee), so it must mark every slot, approx replies scored
// before the repair must say so, and Quiesce() must converge to a fresh
// build.
TEST(LandmarkRepairerScheduleTest, UnwatchedFollowMarksEverySlot) {
  Fixture f;
  RepairStack stack(f);
  const std::vector<NodeId> unwatched = stack.UnwatchedNodes();
  ASSERT_GE(unwatched.size(), 2u);
  ASSERT_TRUE(stack.Follow(unwatched[0], unwatched[1]));
  EXPECT_EQ(stack.repairer().stale_count(), stack.landmarks().size());

  auto reply = stack.engine().Recommend(core::Query::TopN(3, 0, 10));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply.value().meta.cache_hit);
  EXPECT_EQ(reply.value().meta.served_tier, core::Tier::kStale);

  stack.repairer().Quiesce();
  EXPECT_EQ(stack.repairer().stale_count(), 0u);
  EXPECT_TRUE(stack.MatchesFreshBuild())
      << "quiesced index differs from a fresh build on the live graph";
}

// A batch whose every record is rejected publishes nothing, so it marks
// nothing: no stale slot, no marking counted, no epoch bump, no repair.
TEST(LandmarkRepairerScheduleTest, RejectedOnlyBatchMarksNothing) {
  Fixture f;
  RepairStack stack(f);
  obs::Counter* marked = stack.engine().registry().GetCounter(
      "mbr_repair_stale_marked_total", "");
  const uint64_t marked_before = marked->Value();
  const uint64_t epoch_before = stack.engine().params_epoch();
  // UNFOLLOW of an edge the graph does not have.
  NodeId dst = 1;
  while (f.ds.graph.HasEdge(0, dst)) ++dst;
  ASSERT_EQ(stack.Apply({service::MutationOp::kUnfollow, 0, dst, {}}), 0u);
  EXPECT_EQ(stack.repairer().stale_count(), 0u);
  EXPECT_EQ(marked->Value(), marked_before);
  EXPECT_EQ(stack.engine().params_epoch(), epoch_before);
  EXPECT_TRUE(stack.repairer().RepairStale(stack.landmarks().size()).empty());
}

// The applier marks every slot before Rebind publishes the batch, so no
// reply scored on the new generation is stamped kApprox from older lists.
// Parking the batch inside Rebind (behind a held RunExclusive) shows the
// order: every slot is already stale while the epoch has not moved.
TEST(LandmarkRepairerScheduleTest, BatchIsMarkedBeforeItIsPublished) {
  Fixture f;
  RepairStack stack(f);
  const size_t slots = stack.landmarks().size();
  const uint64_t epoch = stack.engine().params_epoch();
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    stack.engine().RunExclusive([&] {
      entered.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread mutator([&] { stack.FollowSomeone(0); });

  for (int i = 0; i < 2000 && stack.repairer().stale_count() != slots; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stack.repairer().stale_count(), slots)
      << "the batch was not marked before its generation was published";
  EXPECT_EQ(stack.engine().params_epoch(), epoch);

  release.store(true);
  holder.join();
  mutator.join();
  EXPECT_EQ(stack.repairer().stale_count(), slots);
  stack.repairer().Quiesce();
  EXPECT_EQ(stack.repairer().stale_count(), 0u);
  EXPECT_TRUE(stack.MatchesFreshBuild());
}

TEST(LandmarkRepairerScheduleTest, PartialRepairLeavesTheRestForQuiesce) {
  Fixture f;
  RepairStack stack(f);
  const size_t slots = stack.landmarks().size();
  const size_t k = 7;
  stack.FollowSomeone(0);
  ASSERT_EQ(stack.repairer().stale_count(), slots);
  EXPECT_EQ(stack.repairer().RepairStale(k).size(), k);
  EXPECT_EQ(stack.repairer().stale_count(), slots - k);
  stack.repairer().Quiesce();
  EXPECT_EQ(stack.repairer().stale_count(), 0u);
  EXPECT_EQ(stack.repairer().repairs_done(), slots);
}

}  // namespace
}  // namespace mbr
