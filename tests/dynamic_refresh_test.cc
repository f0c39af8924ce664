// Landmark maintenance under churn: LandmarkIndex::RefreshLandmark (the
// repair unit) and service::LandmarkRepairer's schedule — the stale slot
// with the oldest lists is repaired first, ties by slot id.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

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

  landmark::LandmarkIndex MakeIndex() {
    landmark::LandmarkIndexConfig icfg;
    icfg.top_n = 30;
    return landmark::LandmarkIndex(ds.graph, auth,
                                   topics::TwitterSimilarity(),
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

// A serving stack over a fresh copy of the fixture's index. The repairer
// is never started, so RepairStale() and Quiesce() run on the test thread.
class RepairStack {
 public:
  RepairStack(Fixture& f, service::RepairConfig::Mode mode)
      : f_(f),
        index_(f.MakeIndex()),
        engine_(f.ds.graph, f.auth, topics::TwitterSimilarity(),
                MakeEngineConfig(&index_)),
        applier_(f.ds.graph, f.auth, engine_),
        repairer_(index_, engine_, topics::TwitterSimilarity(),
                  applier_.current_graph(), applier_.current_authority(),
                  service::RepairConfig{mode}) {
    applier_.SetRepairer(&repairer_);
  }

  // Applies FOLLOW src -> dst as a one-record batch.
  bool Follow(NodeId src, NodeId dst) {
    const service::Mutation m{service::MutationOp::kFollow, src, dst,
                              topics::TopicSet::Single(0)};
    return applier_.Apply(std::span<const service::Mutation>(&m, 1))
               .applied == 1;
  }

  // Applies one FOLLOW from `src` the live graph does not have yet.
  void FollowSomeone(NodeId src) {
    for (NodeId dst = 0; dst < f_.ds.graph.num_nodes(); ++dst) {
      if (dst != src && Follow(src, dst)) return;
    }
    FAIL() << "node " << src << " already follows everyone";
  }

  const std::vector<NodeId>& landmarks() const { return index_.landmarks(); }
  service::LandmarkRepairer& repairer() { return repairer_; }

  // Nodes that are neither landmarks nor on any stored list: a mutation
  // touching only these can change no stored list.
  std::vector<NodeId> UnwatchedNodes() const {
    std::vector<bool> watched(f_.ds.graph.num_nodes(), false);
    for (NodeId lm : landmarks()) {
      watched[lm] = true;
      for (int t = 0; t < index_.num_topics(); ++t) {
        for (const landmark::StoredRec& rec : index_.Recommendations(
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

  // Whether `node` is on a stored list of some landmark other than `lm`.
  bool OnOtherLists(NodeId node, NodeId lm) const {
    for (NodeId other : landmarks()) {
      if (other == lm) continue;
      for (int t = 0; t < index_.num_topics(); ++t) {
        for (const landmark::StoredRec& rec : index_.Recommendations(
                 other, static_cast<topics::TopicId>(t))) {
          if (rec.node == node) return true;
        }
      }
    }
    return false;
  }

 private:
  static service::EngineConfig MakeEngineConfig(
      const landmark::LandmarkIndex* index) {
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.landmarks = index;
    return ec;
  }

  Fixture& f_;
  landmark::LandmarkIndex index_;
  service::QueryEngine engine_;
  service::MutationApplier applier_;
  service::LandmarkRepairer repairer_;
};

// kAll marks every slot on every batch, so the oldest lists are always
// those of the slots not yet repaired: one repair per round walks the
// landmarks in slot order, each exactly once. Repairing the lowest stale
// slot instead would pick landmarks[0] every round.
TEST(LandmarkRepairerScheduleTest, AllModeRoundsRepairEachLandmarkInOrder) {
  Fixture f;
  RepairStack stack(f, service::RepairConfig::Mode::kAll);
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

TEST(LandmarkRepairerScheduleTest, UnwatchedFollowMarksNothing) {
  Fixture f;
  RepairStack stack(f, service::RepairConfig::Mode::kTouched);
  const std::vector<NodeId> unwatched = stack.UnwatchedNodes();
  ASSERT_GE(unwatched.size(), 2u);
  ASSERT_TRUE(stack.Follow(unwatched[0], unwatched[1]));
  EXPECT_EQ(stack.repairer().stale_count(), 0u);
  EXPECT_TRUE(stack.repairer().RepairStale(stack.landmarks().size()).empty());
  EXPECT_EQ(stack.repairer().repairs_done(), 0u);
}

TEST(LandmarkRepairerScheduleTest, FollowFromLandmarkMarksOnlyThatLandmark) {
  Fixture f;
  RepairStack stack(f, service::RepairConfig::Mode::kTouched);
  const std::vector<NodeId> unwatched = stack.UnwatchedNodes();
  ASSERT_FALSE(unwatched.empty());
  // A landmark no other landmark's lists mention: touching it can only
  // invalidate its own exploration.
  auto lm = std::find_if(
      stack.landmarks().begin(), stack.landmarks().end(),
      [&](NodeId l) { return !stack.OnOtherLists(l, l); });
  ASSERT_NE(lm, stack.landmarks().end());
  ASSERT_TRUE(stack.Follow(*lm, unwatched[0]));
  EXPECT_EQ(stack.repairer().stale_count(), 1u);
  EXPECT_EQ(stack.repairer().RepairStale(stack.landmarks().size()),
            std::vector<NodeId>{*lm});
  EXPECT_EQ(stack.repairer().stale_count(), 0u);
}

TEST(LandmarkRepairerScheduleTest, PartialRepairLeavesTheRestForQuiesce) {
  Fixture f;
  RepairStack stack(f, service::RepairConfig::Mode::kAll);
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
