// Interface-contract suite: every core::Recommender implementation must
// honour the same guarantees — candidate scoring is positionally aligned
// and non-negative, TopN is ranked, self-free, within budget, and
// consistent with CandidateScores; the Query request object's exclusion
// list and deadline must behave identically across implementations.

#include <chrono>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/katz.h"
#include "baselines/neighborhood.h"
#include "baselines/twitterrank.h"
#include "baselines/wtf_salsa.h"
#include "core/authority.h"
#include "core/recommender.h"
#include "datagen/twitter_generator.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "obs/metrics.h"
#include "topics/similarity_matrix.h"
#include "util/status.h"

namespace mbr {
namespace {

struct Shared {
  datagen::GeneratedDataset ds = [] {
    datagen::TwitterConfig c;
    c.num_nodes = 1200;
    return datagen::GenerateTwitter(c);
  }();
  core::AuthorityIndex auth{ds.graph};
  landmark::SelectionResult sel = SelectLandmarks(
      ds.graph, landmark::SelectionStrategy::kFollow, [] {
        landmark::SelectionConfig c;
        c.num_landmarks = 15;
        return c;
      }());
  landmark::LandmarkIndex index{ds.graph, auth, topics::TwitterSimilarity(),
                                sel.landmarks, {}};
};

Shared& shared() {
  static Shared& s = *new Shared();
  return s;
}

// A recommender constructor with a fixed label. gtest prints a bare
// function pointer as its address, which ASLR moves on every run, and
// ctest's discovered test names embed the printed parameter; the label
// keeps those names the same from one build to the next.
struct Factory {
  const char* label;
  std::unique_ptr<core::Recommender> (*make)();
  std::unique_ptr<core::Recommender> operator()() const { return make(); }
};

void PrintTo(const Factory& f, std::ostream* os) { *os << f.label; }

std::unique_ptr<core::Recommender> MakeTr() {
  return std::make_unique<core::TrRecommender>(shared().ds.graph,
                                               topics::TwitterSimilarity());
}
std::unique_ptr<core::Recommender> MakeKatz() {
  return std::make_unique<baselines::KatzRecommender>(
      shared().ds.graph, topics::TwitterSimilarity(), core::ScoreParams{});
}
std::unique_ptr<core::Recommender> MakeTwr() {
  return std::make_unique<baselines::TwitterRank>(shared().ds.graph);
}
std::unique_ptr<core::Recommender> MakeWtf() {
  return std::make_unique<baselines::WtfSalsa>(shared().ds.graph);
}
std::unique_ptr<core::Recommender> MakeAdamic() {
  return std::make_unique<baselines::NeighborhoodRecommender>(
      shared().ds.graph, baselines::NeighborhoodScore::kAdamicAdar);
}
std::unique_ptr<core::Recommender> MakeApprox() {
  Shared& s = shared();
  return std::make_unique<landmark::ApproxRecommender>(
      s.ds.graph, s.auth, topics::TwitterSimilarity(), s.index,
      landmark::ApproxConfig{});
}

class RecommenderContractTest : public ::testing::TestWithParam<Factory> {};

TEST_P(RecommenderContractTest, CandidateScoresContract) {
  auto rec = GetParam()();
  std::vector<graph::NodeId> candidates = {1, 5, 9, 300, 900, 5, 1};
  auto scores = rec->CandidateScores(7, 0, candidates);
  ASSERT_EQ(scores.size(), candidates.size());
  for (double s : scores) EXPECT_GE(s, 0.0);
  // Duplicate candidates get identical scores (pure function of (u,t,v)).
  EXPECT_DOUBLE_EQ(scores[1], scores[5]);
  EXPECT_DOUBLE_EQ(scores[0], scores[6]);
  // Repeatable.
  auto again = rec->CandidateScores(7, 0, candidates);
  EXPECT_EQ(scores, again);
}

TEST_P(RecommenderContractTest, TopNContract) {
  auto rec = GetParam()();
  for (graph::NodeId u : {3u, 42u, 777u}) {
    auto top = rec->TopN(u, 2, 8);
    EXPECT_LE(top.size(), 8u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_NE(top[i].id, u);
      EXPECT_GE(top[i].score, 0.0);
      if (i > 0) {
        EXPECT_GE(top[i - 1].score, top[i].score);
      }
      // Scores agree with CandidateScores.
      auto check = rec->CandidateScores(u, 2, {top[i].id});
      EXPECT_DOUBLE_EQ(check[0], top[i].score);
    }
  }
}

TEST_P(RecommenderContractTest, HasName) {
  auto rec = GetParam()();
  EXPECT_FALSE(rec->name().empty());
}

TEST_P(RecommenderContractTest, ExcludeRemovesIdsWithoutReordering) {
  auto rec = GetParam()();
  auto base = rec->TopN(3, 2, 8);
  if (base.size() < 2) GTEST_SKIP() << "graph too sparse for this user";

  // Banning the top result must drop exactly it; the survivors keep their
  // relative order and scores.
  core::Query q = core::Query::TopN(3, 2, 8).WithExclude({base[0].id});
  auto r = rec->Recommend(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& got = r.value().entries;
  ASSERT_FALSE(got.empty());
  for (const auto& e : got) EXPECT_NE(e.id, base[0].id);
  for (size_t i = 0; i + 1 < base.size() && i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, base[i + 1].id) << "rank " << i;
    EXPECT_DOUBLE_EQ(got[i].score, base[i + 1].score);
  }

  // Excluding every baseline id yields a list disjoint from the baseline.
  std::vector<graph::NodeId> all;
  for (const auto& e : base) all.push_back(e.id);
  auto rest =
      rec->Recommend(core::Query::TopN(3, 2, 8).WithExclude(std::move(all)));
  ASSERT_TRUE(rest.ok());
  for (const auto& e : rest.value().entries) {
    for (const auto& b : base) EXPECT_NE(e.id, b.id);
  }
}

TEST_P(RecommenderContractTest, ExpiredDeadlineYieldsDeadlineExceeded) {
  auto rec = GetParam()();
  obs::Counter* expired = obs::Registry::Default().GetCounter(
      "mbr_recommender_deadline_exceeded_total", "");
  const uint64_t before = expired->Value();

  core::Query q = core::Query::TopN(3, 2, 8).WithDeadline(
      std::chrono::milliseconds(-1));  // already in the past
  auto r = rec->Recommend(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_GT(expired->Value(), before);  // counted in the default registry

  // A generous deadline changes nothing about the answer.
  auto relaxed = rec->Recommend(
      core::Query::TopN(3, 2, 8).WithDeadline(std::chrono::minutes(10)));
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  auto base = rec->TopN(3, 2, 8);
  ASSERT_EQ(relaxed.value().entries.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(relaxed.value().entries[i].id, base[i].id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRecommenders, RecommenderContractTest,
                         ::testing::Values(Factory{"Tr", &MakeTr},
                                           Factory{"Katz", &MakeKatz},
                                           Factory{"TwitterRank", &MakeTwr},
                                           Factory{"WtfSalsa", &MakeWtf},
                                           Factory{"AdamicAdar", &MakeAdamic},
                                           Factory{"TrLandmark", &MakeApprox}));

}  // namespace
}  // namespace mbr
