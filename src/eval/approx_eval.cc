#include "eval/approx_eval.h"

#include <algorithm>
#include <memory>

#include "core/recommender.h"
#include "core/scorer.h"
#include "util/kendall.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace mbr::eval {

namespace {

using graph::NodeId;
using topics::TopicId;

// Exact converged top-k at the query node for one topic.
std::vector<uint32_t> ExactTopK(const core::Scorer& scorer, NodeId u,
                                TopicId t, uint32_t k) {
  core::ExplorationResult res =
      scorer.Explore(u, topics::TopicSet::Single(t));
  util::TopK topk(k);
  for (NodeId v : res.reached()) {
    if (v == u) continue;
    double s = res.Sigma(v, t);
    if (s > 0.0) topk.Offer(v, s);
  }
  std::vector<uint32_t> ids;
  for (const util::ScoredId& r : topk.Take()) ids.push_back(r.id);
  return ids;
}

}  // namespace

StrategyEvaluation EvaluateStrategy(const graph::LabeledGraph& g,
                                    const core::AuthorityIndex& authority,
                                    const topics::SimilarityMatrix& sim,
                                    landmark::SelectionStrategy strategy,
                                    const ApproxEvalConfig& config) {
  MBR_CHECK(!config.stored_top_ns.empty());
  StrategyEvaluation out;
  out.strategy = strategy;

  // ---- Selection (Table 5, "select. (ms)").
  landmark::SelectionResult sel =
      SelectLandmarks(g, strategy, config.selection);
  out.selection_millis_per_landmark = sel.millis_per_landmark;

  // ---- Pre-processing: one Algorithm 1 pass at the largest stored size;
  // the smaller sizes are truncations of it (the stored list length does
  // not change Algorithm 1's exploration cost, §5.4 Table 5).
  uint32_t largest =
      *std::max_element(config.stored_top_ns.begin(),
                        config.stored_top_ns.end());
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = largest;
  icfg.params = config.params;
  landmark::LandmarkIndex full_index(g, authority, sim, sel.landmarks, icfg);
  out.build_seconds_per_landmark = full_index.build_seconds_per_landmark();
  out.index_bytes_largest = full_index.StorageBytes();
  std::vector<landmark::LandmarkIndex> indices;
  indices.reserve(config.stored_top_ns.size());
  for (uint32_t top_n : config.stored_top_ns) {
    indices.push_back(full_index.Truncated(top_n));
  }

  // ---- Queries. Each side reuses one recommender across them, so "query
  // ms" does not time a cold arena carve and score-table fill per query.
  core::ScoreParams exact_params = config.params;
  core::Scorer exact_scorer(g, authority, sim, exact_params);
  landmark::ApproxConfig acfg;
  acfg.query_depth = config.query_depth;
  acfg.params = config.params;
  std::vector<std::unique_ptr<landmark::ApproxRecommender>> approx;
  for (const landmark::LandmarkIndex& index : indices) {
    approx.push_back(std::make_unique<landmark::ApproxRecommender>(
        g, authority, sim, index, acfg));
  }

  util::Rng rng(config.seed);
  out.kendall_tau.assign(config.stored_top_ns.size(), 0.0);
  uint32_t queries_done = 0;
  for (uint32_t q = 0; q < config.num_queries; ++q) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(g.num_nodes()));
    if (g.OutDegree(u) == 0) continue;
    TopicId t = static_cast<TopicId>(rng.UniformU64(g.num_topics()));

    // Exact reference (converged) + timing.
    util::WallTimer exact_timer;
    std::vector<uint32_t> exact_top =
        ExactTopK(exact_scorer, u, t, config.compare_top_n);
    out.avg_exact_seconds += exact_timer.ElapsedSeconds();

    // Approximate per stored size; stats measured once per index.
    for (size_t i = 0; i < approx.size(); ++i) {
      landmark::QueryStats stats;
      auto scores = approx[i]->ApproximateScores(u, t, &stats);
      util::TopK topk(config.compare_top_n);
      for (const auto& [v, s] : scores) {
        if (v != u && s > 0.0) topk.Offer(v, s);
      }
      std::vector<uint32_t> approx_top;
      for (const util::ScoredId& r : topk.Take()) approx_top.push_back(r.id);
      out.kendall_tau[i] += util::KendallTauTopK(approx_top, exact_top);
      if (i == 0) {
        out.avg_landmarks_met += stats.landmarks_encountered;
        out.avg_query_seconds += stats.seconds;
      }
    }
    ++queries_done;
  }

  if (queries_done > 0) {
    out.avg_landmarks_met /= queries_done;
    out.avg_query_seconds /= queries_done;
    out.avg_exact_seconds /= queries_done;
    for (double& k : out.kendall_tau) k /= queries_done;
  }
  out.gain = out.avg_query_seconds > 0.0
                 ? out.avg_exact_seconds / out.avg_query_seconds
                 : 0.0;
  return out;
}

}  // namespace mbr::eval
