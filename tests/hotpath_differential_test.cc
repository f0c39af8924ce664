// Differential determinism suite for the zero-allocation hot path
// (DESIGN.md §6.6): the arena/policy-template core::Scorer must be
// BITWISE identical to a straight port of the original implementation —
// unordered/per-call-allocated containers, per-edge variant switch — on
// every score it produces, across all three ablation variants, random
// graphs, sources, topic sets and pruning masks. Also pins:
//   * repeat determinism: re-running a query on a reused scorer (scratch
//     warm, interleaved with other queries) reproduces every bit;
//   * the landmark approximation built on ScoreTable/ScoresFlat against a
//     reference composition done in std::unordered_map.

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/authority.h"
#include "core/params.h"
#include "core/scorer.h"
#include "datagen/twitter_generator.h"
#include "graph/labeled_graph.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace mbr::core {
namespace {

using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicId;
using topics::TopicSet;

// ---------------------------------------------------------------------------
// Reference implementation: Algorithm 1 exactly as the pre-refactor scorer
// computed it. Per-query allocated vectors, per-edge switch on the variant.
// Deliberately kept dumb — its only virtue is being a separate derivation
// of the same floating-point program.

struct RefResult {
  std::vector<NodeId> reached;  // first-reached order
  std::unordered_map<NodeId, std::vector<double>> sigma;  // v -> per-topic
  std::unordered_map<NodeId, double> topo_beta;
  std::unordered_map<NodeId, double> topo_alphabeta;
  bool converged = false;
  uint32_t iterations = 0;
};

double RefEdgeWeight(const topics::SimilarityMatrix& sim,
                     const AuthorityIndex& auth, const ScoreParams& params,
                     TopicSet labels, NodeId v, TopicId t) {
  double s;
  switch (params.variant) {
    case ScoreVariant::kFull:
      s = sim.MaxSim(labels, t);
      break;
    case ScoreVariant::kNoAuth:
      s = sim.MaxSim(labels, t);
      return params.beta * params.alpha * s;
    case ScoreVariant::kNoSim:
      s = 1.0;
      break;
    default:
      s = 0.0;
  }
  return params.beta * params.alpha * s * auth.Authority(v, t);
}

RefResult RefExplore(const LabeledGraph& g, const AuthorityIndex& auth,
                     const topics::SimilarityMatrix& sim,
                     const ScoreParams& params, NodeId source,
                     TopicSet query_topics,
                     const std::vector<bool>* pruned = nullptr) {
  const int nt = g.num_topics();
  const double beta = params.beta;
  const double alphabeta = params.alpha * params.beta;

  std::vector<TopicId> qt;
  for (TopicId t : query_topics) qt.push_back(t);
  const size_t qn = qt.size();

  const NodeId n = g.num_nodes();
  std::vector<double> delta_b(n, 0.0), delta_ab(n, 0.0);
  std::vector<double> next_b(n, 0.0), next_ab(n, 0.0);
  std::vector<double> delta_sigma(static_cast<size_t>(n) * qn, 0.0);
  std::vector<double> next_sigma(static_cast<size_t>(n) * qn, 0.0);
  std::vector<bool> in_next(n, false);

  RefResult out;
  auto touch = [&](NodeId v) {
    if (out.sigma.find(v) == out.sigma.end()) {
      out.reached.push_back(v);
      out.sigma.emplace(v, std::vector<double>(nt, 0.0));
      out.topo_beta.emplace(v, 0.0);
      out.topo_alphabeta.emplace(v, 0.0);
    }
  };

  std::vector<NodeId> frontier = {source};
  delta_b[source] = 1.0;
  delta_ab[source] = 1.0;

  uint32_t depth = 0;
  while (depth < params.max_depth && !frontier.empty()) {
    std::vector<NodeId> next_frontier;
    double added_mass = 0.0;

    for (NodeId u : frontier) {
      const double db = delta_b[u];
      const double dab = delta_ab[u];
      const double* dsig = delta_sigma.data() + static_cast<size_t>(u) * qn;
      auto nbrs = g.OutNeighbors(u);
      auto labs = g.OutEdgeLabels(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        if (!in_next[v]) {
          in_next[v] = true;
          next_frontier.push_back(v);
        }
        next_b[v] += beta * db;
        next_ab[v] += alphabeta * dab;
        double* nsig = next_sigma.data() + static_cast<size_t>(v) * qn;
        for (size_t qi = 0; qi < qn; ++qi) {
          double w = RefEdgeWeight(sim, auth, params, labs[i], v, qt[qi]);
          nsig[qi] += beta * dsig[qi] + dab * w;
        }
      }
    }

    for (NodeId u : frontier) {
      delta_b[u] = 0.0;
      delta_ab[u] = 0.0;
      double* dsig = delta_sigma.data() + static_cast<size_t>(u) * qn;
      for (size_t qi = 0; qi < qn; ++qi) dsig[qi] = 0.0;
    }

    std::vector<NodeId> new_frontier;
    for (NodeId v : next_frontier) {
      in_next[v] = false;
      touch(v);
      out.topo_beta[v] += next_b[v];
      out.topo_alphabeta[v] += next_ab[v];
      double* rsig = out.sigma[v].data();
      double* nsig = next_sigma.data() + static_cast<size_t>(v) * qn;
      double node_mass = 0.0;
      for (size_t qi = 0; qi < qn; ++qi) {
        rsig[qt[qi]] += nsig[qi];
        node_mass += nsig[qi];
      }
      added_mass += node_mass;

      bool expand = true;
      if (pruned != nullptr && (*pruned)[v]) expand = false;
      if (params.frontier_epsilon > 0.0 &&
          next_b[v] < params.frontier_epsilon &&
          next_ab[v] < params.frontier_epsilon &&
          node_mass < params.frontier_epsilon) {
        expand = false;
      }
      if (expand) {
        delta_b[v] = next_b[v];
        delta_ab[v] = next_ab[v];
        double* dsig = delta_sigma.data() + static_cast<size_t>(v) * qn;
        for (size_t qi = 0; qi < qn; ++qi) dsig[qi] = nsig[qi];
        new_frontier.push_back(v);
      }
      next_b[v] = 0.0;
      next_ab[v] = 0.0;
      for (size_t qi = 0; qi < qn; ++qi) nsig[qi] = 0.0;
    }

    frontier = std::move(new_frontier);
    ++depth;
    out.iterations = depth;

    if (qn > 0) {
      double denom = static_cast<double>(out.reached.size()) *
                     static_cast<double>(qn);
      if (denom > 0.0 && added_mass / denom < params.tolerance &&
          depth >= 2) {
        out.converged = true;
        break;
      }
    }
  }
  if (frontier.empty()) out.converged = true;
  return out;
}

// Bitwise comparison: EXPECT_EQ on doubles is exact equality.
void ExpectBitIdentical(const RefResult& ref, const ExplorationResult& got,
                        const LabeledGraph& g, const char* ctx) {
  ASSERT_EQ(ref.reached, got.reached()) << ctx;
  ASSERT_EQ(ref.converged, got.converged()) << ctx;
  ASSERT_EQ(ref.iterations, got.iterations_run()) << ctx;
  for (NodeId v : ref.reached) {
    EXPECT_EQ(ref.topo_beta.at(v), got.TopoBeta(v)) << ctx << " v=" << v;
    EXPECT_EQ(ref.topo_alphabeta.at(v), got.TopoAlphaBeta(v))
        << ctx << " v=" << v;
    const std::vector<double>& srow = ref.sigma.at(v);
    for (int t = 0; t < g.num_topics(); ++t) {
      ASSERT_EQ(srow[static_cast<size_t>(t)],
                got.Sigma(v, static_cast<TopicId>(t)))
          << ctx << " v=" << v << " t=" << t;
    }
  }
}

TopicSet Ts(std::initializer_list<TopicId> ids) {
  TopicSet s;
  for (TopicId t : ids) s.Add(t);
  return s;
}

datagen::GeneratedDataset MakeDataset(uint32_t nodes, uint64_t seed) {
  datagen::TwitterConfig c;
  c.num_nodes = nodes;
  c.seed = seed;
  return datagen::GenerateTwitter(c);
}

ScoreParams ParamsFor(ScoreVariant variant, double eps, double tol,
                      uint32_t depth) {
  ScoreParams p;
  p.variant = variant;
  p.beta = 0.1;
  p.alpha = 0.85;
  p.frontier_epsilon = eps;
  p.tolerance = tol;
  p.max_depth = depth;
  return p;
}

TEST(HotpathDifferentialTest, AllVariantsBitIdenticalOnRandomGraphs) {
  const ScoreVariant variants[] = {ScoreVariant::kFull, ScoreVariant::kNoAuth,
                                   ScoreVariant::kNoSim};
  for (uint64_t seed : {7u, 21u}) {
    auto ds = MakeDataset(seed == 7u ? 300u : 800u, seed);
    AuthorityIndex auth(ds.graph);
    util::Rng rng(seed);
    for (ScoreVariant variant : variants) {
      ScoreParams params =
          ParamsFor(variant, /*eps=*/0.0, /*tol=*/1e-12, /*depth=*/10);
      Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
      for (int q = 0; q < 6; ++q) {
        NodeId u =
            static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
        TopicId t = static_cast<TopicId>(
            rng.UniformU64(static_cast<uint64_t>(ds.graph.num_topics())));
        RefResult ref = RefExplore(ds.graph, auth, topics::TwitterSimilarity(),
                                   params, u, TopicSet::Single(t));
        const ExplorationResult& got =
            scorer.Explore(u, TopicSet::Single(t));
        ExpectBitIdentical(ref, got, ds.graph, "single-topic");
      }
    }
  }
}

TEST(HotpathDifferentialTest, MultiTopicAndAllTopicsBitIdentical) {
  auto ds = MakeDataset(400, 3);
  AuthorityIndex auth(ds.graph);
  ScoreParams params =
      ParamsFor(ScoreVariant::kFull, /*eps=*/0.0, /*tol=*/1e-12, /*depth=*/8);
  Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
  util::Rng rng(11);

  // Random multi-topic sets (the landmark pre-processing shape).
  for (int q = 0; q < 4; ++q) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
    TopicSet set;
    for (int k = 0; k < 3; ++k) {
      set.Add(static_cast<TopicId>(
          rng.UniformU64(static_cast<uint64_t>(ds.graph.num_topics()))));
    }
    RefResult ref = RefExplore(ds.graph, auth, topics::TwitterSimilarity(),
                               params, u, set);
    ExpectBitIdentical(ref, scorer.Explore(u, set), ds.graph, "multi-topic");
  }

  TopicSet all;
  for (int t = 0; t < ds.graph.num_topics(); ++t) {
    all.Add(static_cast<TopicId>(t));
  }
  RefResult ref =
      RefExplore(ds.graph, auth, topics::TwitterSimilarity(), params, 5, all);
  ExpectBitIdentical(ref, scorer.Explore(5, all), ds.graph, "all-topics");
}

TEST(HotpathDifferentialTest, PruningAndEpsilonBitIdentical) {
  auto ds = MakeDataset(500, 9);
  AuthorityIndex auth(ds.graph);
  util::Rng rng(13);
  std::vector<bool> pruned(ds.graph.num_nodes(), false);
  for (int i = 0; i < 25; ++i) {
    pruned[rng.UniformU64(ds.graph.num_nodes())] = true;
  }
  ScoreParams params = ParamsFor(ScoreVariant::kFull, /*eps=*/1e-7,
                                 /*tol=*/1e-10, /*depth=*/6);
  Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
  for (int q = 0; q < 5; ++q) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
    TopicId t = static_cast<TopicId>(
        rng.UniformU64(static_cast<uint64_t>(ds.graph.num_topics())));
    RefResult ref = RefExplore(ds.graph, auth, topics::TwitterSimilarity(),
                               params, u, TopicSet::Single(t), &pruned);
    ExpectBitIdentical(ref, scorer.Explore(u, TopicSet::Single(t), &pruned),
                       ds.graph, "pruned");
  }
}

TEST(HotpathDifferentialTest, RepeatQueriesOnWarmScratchAreDeterministic) {
  auto ds = MakeDataset(300, 17);
  AuthorityIndex auth(ds.graph);
  ScoreParams params =
      ParamsFor(ScoreVariant::kFull, /*eps=*/0.0, /*tol=*/1e-12, /*depth=*/10);
  util::QueryArena arena;
  Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params, &arena);

  // First pass: copy the results of three queries (including a multi-topic
  // one so the scratch stride changes between calls).
  ExplorationResult a = scorer.Explore(1, TopicSet::Single(0));
  ExplorationResult b = scorer.Explore(2, Ts({0, 3, 7}));
  ExplorationResult c = scorer.Explore(1, TopicSet::Single(5));

  // Replay in a different interleaving on the now-warm scratch: every bit
  // must match the first pass.
  auto expect_same = [&](const ExplorationResult& want,
                         const ExplorationResult& got) {
    ASSERT_EQ(want.reached(), got.reached());
    for (NodeId v : want.reached()) {
      EXPECT_EQ(want.TopoBeta(v), got.TopoBeta(v));
      EXPECT_EQ(want.TopoAlphaBeta(v), got.TopoAlphaBeta(v));
      for (int t = 0; t < ds.graph.num_topics(); ++t) {
        ASSERT_EQ(want.Sigma(v, static_cast<TopicId>(t)),
                  got.Sigma(v, static_cast<TopicId>(t)));
      }
    }
  };
  expect_same(c, scorer.Explore(1, TopicSet::Single(5)));
  expect_same(a, scorer.Explore(1, TopicSet::Single(0)));
  expect_same(b, scorer.Explore(2, Ts({0, 3, 7})));
}

TopicSet AllOf(const LabeledGraph& g) {
  TopicSet all;
  for (int t = 0; t < g.num_topics(); ++t) all.Add(static_cast<TopicId>(t));
  return all;
}

// A random proper subset of the vocabulary with 2..nt-1 topics.
TopicSet PartialSet(const LabeledGraph& g, util::Rng& rng) {
  const int nt = g.num_topics();
  TopicSet set;
  const int want = 2 + static_cast<int>(rng.UniformU64(nt - 2));
  while (set.size() < want) {
    set.Add(static_cast<TopicId>(rng.UniformU64(nt)));
  }
  return set;
}

// Σ(v, t) must read 0 for every topic the query did not ask for.
void ExpectZeroOutside(const ExplorationResult& got, TopicSet q,
                       const LabeledGraph& g, const char* ctx) {
  for (NodeId v : got.reached()) {
    for (int t = 0; t < g.num_topics(); ++t) {
      if (q.Contains(static_cast<TopicId>(t))) continue;
      ASSERT_EQ(0.0, got.Sigma(v, static_cast<TopicId>(t)))
          << ctx << " v=" << v << " t=" << t;
    }
  }
}

// The multi-topic row step under every variant: all-topic and partial
// query sets, several sources, on two generated graphs.
TEST(HotpathDifferentialTest, MultiTopicRowsBitIdenticalUnderEveryVariant) {
  const ScoreVariant variants[] = {ScoreVariant::kFull, ScoreVariant::kNoAuth,
                                   ScoreVariant::kNoSim};
  for (uint64_t seed : {5u, 31u}) {
    auto ds = MakeDataset(seed == 5u ? 350u : 600u, seed);
    AuthorityIndex auth(ds.graph);
    util::Rng rng(seed + 100);
    for (ScoreVariant variant : variants) {
      ScoreParams params =
          ParamsFor(variant, /*eps=*/0.0, /*tol=*/1e-12, /*depth=*/8);
      Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
      for (int q = 0; q < 3; ++q) {
        const NodeId u =
            static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
        for (TopicSet set : {AllOf(ds.graph), PartialSet(ds.graph, rng)}) {
          RefResult ref = RefExplore(ds.graph, auth,
                                     topics::TwitterSimilarity(), params, u,
                                     set);
          const ExplorationResult& got = scorer.Explore(u, set);
          ExpectBitIdentical(ref, got, ds.graph, "multi-topic rows");
          ExpectZeroOutside(got, set, ds.graph, "multi-topic rows");
        }
      }
    }
  }
}

TEST(HotpathDifferentialTest, MultiTopicPruningAndEpsilonBitIdentical) {
  auto ds = MakeDataset(500, 9);
  AuthorityIndex auth(ds.graph);
  util::Rng rng(41);
  std::vector<bool> pruned(ds.graph.num_nodes(), false);
  for (int i = 0; i < 25; ++i) {
    pruned[rng.UniformU64(ds.graph.num_nodes())] = true;
  }
  for (ScoreVariant variant : {ScoreVariant::kFull, ScoreVariant::kNoAuth,
                               ScoreVariant::kNoSim}) {
    ScoreParams params =
        ParamsFor(variant, /*eps=*/1e-7, /*tol=*/1e-10, /*depth=*/6);
    Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
    for (int q = 0; q < 3; ++q) {
      const NodeId u =
          static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
      for (TopicSet set : {AllOf(ds.graph), PartialSet(ds.graph, rng)}) {
        RefResult ref = RefExplore(ds.graph, auth,
                                   topics::TwitterSimilarity(), params, u,
                                   set, &pruned);
        ExpectBitIdentical(ref, scorer.Explore(u, set, &pruned), ds.graph,
                           "multi-topic pruned");
      }
    }
  }
}

// A graph whose edges carry no label, one label or several, scored with
// a similarity matrix that has zero and negative entries: the max-sim row
// of an edge must equal MaxSim's max-from-0 for every topic.
TEST(HotpathDifferentialTest, MultiLabelAndUnlabeledEdgesBitIdentical) {
  constexpr int kTopics = 7;
  constexpr NodeId kNodes = 300;
  util::Rng rng(57);
  graph::GraphBuilder b(kNodes, kTopics);
  auto random_labels = [&](int max_labels) {
    TopicSet set;
    const int k = static_cast<int>(rng.UniformU64(max_labels + 1));
    for (int i = 0; i < k; ++i) {
      set.Add(static_cast<TopicId>(rng.UniformU64(kTopics)));
    }
    return set;
  };
  for (NodeId u = 0; u < kNodes; ++u) {
    b.SetNodeLabels(u, random_labels(2));
    const int deg = 1 + static_cast<int>(rng.UniformU64(8));
    for (int e = 0; e < deg; ++e) {
      b.AddEdge(u, static_cast<NodeId>(rng.UniformU64(kNodes)),
                random_labels(4));
    }
  }
  LabeledGraph g = std::move(b).Build();
  size_t unlabeled = 0, multi = 0;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (TopicSet labels : g.OutEdgeLabels(u)) {
      if (labels.empty()) ++unlabeled;
      if (labels.size() > 1) ++multi;
    }
  }
  ASSERT_GT(unlabeled, 0u);
  ASSERT_GT(multi, 0u);

  std::vector<double> dense(kTopics * kTopics, 1.0);
  for (int a = 0; a < kTopics; ++a) {
    for (int c = 0; c < a; ++c) {
      const double s = (a + c) % 4 == 0   ? 0.0
                       : (a + c) % 5 == 0 ? -0.25
                                          : 0.1 * ((a * c) % 9);
      dense[a * kTopics + c] = s;
      dense[c * kTopics + a] = s;
    }
  }
  const topics::SimilarityMatrix sim =
      topics::SimilarityMatrix::FromDense(kTopics, dense);
  AuthorityIndex auth(g);

  for (ScoreVariant variant : {ScoreVariant::kFull, ScoreVariant::kNoAuth,
                               ScoreVariant::kNoSim}) {
    ScoreParams params =
        ParamsFor(variant, /*eps=*/0.0, /*tol=*/1e-12, /*depth=*/8);
    Scorer scorer(g, auth, sim, params);
    for (int q = 0; q < 4; ++q) {
      const NodeId u = static_cast<NodeId>(rng.UniformU64(kNodes));
      for (TopicSet set : {AllOf(g), PartialSet(g, rng),
                           TopicSet::Single(static_cast<TopicId>(q))}) {
        RefResult ref = RefExplore(g, auth, sim, params, u, set);
        ExpectBitIdentical(ref, scorer.Explore(u, set), g, "mixed labels");
      }
    }
  }
}

// One warm scorer alternating single, partial and all-topic queries: the
// σ columns and scratch rows change width between calls, and every result
// must still match the reference bit for bit and read 0 outside Q.
TEST(HotpathDifferentialTest, WarmScorerAlternatingTopicSetsBitIdentical) {
  auto ds = MakeDataset(400, 61);
  AuthorityIndex auth(ds.graph);
  ScoreParams params =
      ParamsFor(ScoreVariant::kFull, /*eps=*/1e-15, /*tol=*/1e-12,
                /*depth=*/8);
  util::QueryArena arena;
  Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params, &arena);
  util::Rng rng(67);
  const TopicSet partial = Ts({1, 4, 9, 16});
  for (int round = 0; round < 3; ++round) {
    for (TopicSet set : {TopicSet::Single(static_cast<TopicId>(round)),
                         partial, AllOf(ds.graph),
                         TopicSet::Single(static_cast<TopicId>(17 - round)),
                         PartialSet(ds.graph, rng)}) {
      const NodeId u =
          static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
      RefResult ref = RefExplore(ds.graph, auth, topics::TwitterSimilarity(),
                                 params, u, set);
      const ExplorationResult& got = scorer.Explore(u, set);
      ExpectBitIdentical(ref, got, ds.graph, "warm alternating");
      ExpectZeroOutside(got, set, ds.graph, "warm alternating");
    }
  }
}

// The landmark hot path: ScoreTable-accumulated approximate scores against
// the same Proposition 4 composition done with reference exploration +
// std::unordered_map, compared as ranked lists (bitwise scores). A wide
// query (from the node of largest out-degree) runs first and last, so the
// warm table must drop everything the previous query touched.
TEST(HotpathDifferentialTest, LandmarkApproxMatchesReferenceComposition) {
  auto ds = MakeDataset(600, 23);
  AuthorityIndex auth(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = 12;
  auto sel = SelectLandmarks(ds.graph, landmark::SelectionStrategy::kFollow,
                             scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 50;
  landmark::LandmarkIndex index(ds.graph, auth, topics::TwitterSimilarity(),
                                sel.landmarks, icfg);
  landmark::ApproxConfig acfg;
  landmark::ApproxRecommender approx(ds.graph, auth,
                                     topics::TwitterSimilarity(), index,
                                     acfg);

  ScoreParams qparams = acfg.params;
  qparams.max_depth = acfg.query_depth;

  NodeId widest = 0;
  for (NodeId v = 1; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.OutDegree(v) > ds.graph.OutDegree(widest)) widest = v;
  }
  const std::pair<NodeId, TopicId> wide{widest, 0};
  std::vector<std::pair<NodeId, TopicId>> queries{wide};
  util::Rng rng(29);
  for (int q = 0; q < 6; ++q) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(ds.graph.num_nodes()));
    TopicId t = static_cast<TopicId>(
        rng.UniformU64(static_cast<uint64_t>(ds.graph.num_topics())));
    queries.push_back({u, t});
  }
  queries.push_back(wide);

  for (const auto& [u, t] : queries) {
    RefResult res = RefExplore(ds.graph, auth, topics::TwitterSimilarity(),
                               qparams, u, TopicSet::Single(t),
                               &index.landmark_mask());
    std::unordered_map<NodeId, double> want;
    for (NodeId v : res.reached) {
      if (v != u) want[v] += res.sigma.at(v)[t];
      if (!index.IsLandmark(v) || v == u) continue;
      const double sigma_ul = res.sigma.at(v)[t];
      const double topo_ab_ul = res.topo_alphabeta.at(v);
      for (const landmark::StoredRec& rec : index.Recommendations(v, t)) {
        if (rec.node == u) continue;
        want[rec.node] += sigma_ul * rec.topo_beta + topo_ab_ul * rec.sigma;
      }
    }

    const landmark::ScoreTable& got = approx.ScoresFlat(u, t);
    if (u == widest) {
      EXPECT_GT(got.size(), ds.graph.num_nodes() / 2) << "not a wide query";
    }
    ASSERT_EQ(want.size(), got.size()) << "u=" << u << " t=" << int(t);
    for (const auto& [v, s] : got) {
      auto it = want.find(v);
      ASSERT_TRUE(it != want.end()) << "unexpected node " << v;
      EXPECT_EQ(it->second, s) << "u=" << u << " v=" << v;
    }

    // Ranked projection through TopK: identical entries in identical
    // order (RankedBefore is a strict total order on distinct ids, so the
    // table's iteration order cannot leak into the ranking).
    util::TopK want_topk(10);
    for (const auto& [v, s] : want) {
      if (s > 0.0) want_topk.Offer(v, s);
    }
    util::TopK got_topk(10);
    for (const auto& [v, s] : got) {
      if (s > 0.0) got_topk.Offer(v, s);
    }
    EXPECT_EQ(want_topk.Take(), got_topk.Take());
  }
}

}  // namespace
}  // namespace mbr::core
