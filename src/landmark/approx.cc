#include "landmark/approx.h"

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace mbr::landmark {

namespace {

// Table 6 columns as live distributions: how wide the depth-2 BFS fans out
// and how many stored landmark lists each query consults.
obs::Histogram* LandmarksConsultedHistogram() {
  static obs::Histogram* h = obs::Registry::Default().GetHistogram(
      "mbr_landmark_consulted",
      "Landmarks whose stored lists were composed per approximate query.");
  return h;
}

obs::Histogram* NodesReachedHistogram() {
  static obs::Histogram* h = obs::Registry::Default().GetHistogram(
      "mbr_landmark_nodes_reached",
      "Nodes reached by the bounded-depth exploration per approximate "
      "query.");
  return h;
}

}  // namespace

ApproxRecommender::ApproxRecommender(const graph::LabeledGraph& g,
                                     const core::AuthorityIndex& authority,
                                     const topics::SimilarityMatrix& sim,
                                     const LandmarkIndex& index,
                                     const ApproxConfig& config,
                                     util::QueryArena* arena)
    : index_(&index),
      config_([&] {
        ApproxConfig c = config;
        c.params.max_depth = config.query_depth;
        return c;
      }()),
      scorer_(g, authority, sim, config_.params, arena),
      num_nodes_(g.num_nodes()) {}

const ScoreTable& ApproxRecommender::ScoresFlat(graph::NodeId u,
                                                topics::TopicId t,
                                                QueryStats* stats) const {
  util::WallTimer timer;
  const std::vector<bool>* pruned =
      config_.prune_at_landmarks ? &index_->landmark_mask() : nullptr;
  const core::ExplorationResult& res = [&]() -> decltype(auto) {
    MBR_SPAN("landmark.bfs");
    return scorer_.Explore(u, topics::TopicSet::Single(t), pruned);
  }();

  MBR_SPAN("landmark.combine");
  ScoreTable& scores = scores_;
  scores.Clear(num_nodes_);
  uint32_t landmarks_met = 0;

  for (graph::NodeId v : res.reached()) {
    if (v != u) scores.Add(v, res.Sigma(v, t));
    if (!index_->IsLandmark(v) || v == u) continue;
    ++landmarks_met;
    // Proposition 4 composition with λ = v's stored lists:
    // σ̃_λ(u, w, t) = σ(u, λ, t) · topo_β(λ, w) + topo_αβ(u, λ) · σ(λ, w, t).
    const double sigma_ul = res.Sigma(v, t);
    const double topo_ab_ul = res.TopoAlphaBeta(v);
    for (const StoredRec& rec : index_->Recommendations(v, t)) {
      if (rec.node == u) continue;
      scores.Add(rec.node, sigma_ul * rec.topo_beta + topo_ab_ul * rec.sigma);
    }
  }

  LandmarksConsultedHistogram()->Record(landmarks_met);
  NodesReachedHistogram()->Record(res.reached().size());
  if (stats != nullptr) {
    stats->landmarks_encountered = landmarks_met;
    stats->nodes_reached = static_cast<uint32_t>(res.reached().size());
    stats->seconds = timer.ElapsedSeconds();
  }
  return scores;
}

std::unordered_map<graph::NodeId, double> ApproxRecommender::ApproximateScores(
    graph::NodeId u, topics::TopicId t, QueryStats* stats) const {
  const ScoreTable& flat = ScoresFlat(u, t, stats);
  std::unordered_map<graph::NodeId, double> out;
  out.reserve(flat.size() * 2);
  for (const auto& [v, s] : flat) out.emplace(v, s);
  return out;
}

util::Status ApproxRecommender::ExploreDecomposed(
    const core::Query& q, std::vector<DecomposedRecord>* out) const {
  MBR_RETURN_IF_ERROR(CheckDeadline(q));
  const graph::NodeId u = q.user;
  const topics::TopicId t = q.topic;
  const std::vector<bool>* pruned =
      config_.prune_at_landmarks ? &index_->landmark_mask() : nullptr;
  const core::ExplorationResult& res = [&]() -> decltype(auto) {
    MBR_SPAN("landmark.bfs");
    return scorer_.Explore(u, topics::TopicSet::Single(t), pruned);
  }();
  MBR_RETURN_IF_ERROR(CheckDeadline(q));

  out->clear();
  out->reserve(res.reached().size());
  uint32_t landmarks_met = 0;
  for (graph::NodeId v : res.reached()) {
    if (v == u) continue;  // both combine-loop terms skip the query user
    DecomposedRecord rec;
    rec.node = v;
    rec.sigma = res.Sigma(v, t);
    rec.is_landmark = index_->IsLandmark(v);
    if (rec.is_landmark) {
      rec.topo_alphabeta = res.TopoAlphaBeta(v);
      ++landmarks_met;
    }
    out->push_back(rec);
  }
  LandmarksConsultedHistogram()->Record(landmarks_met);
  NodesReachedHistogram()->Record(res.reached().size());
  return util::Status::Ok();
}

util::Result<core::Ranking> ApproxRecommender::Recommend(
    const core::Query& q) const {
  MBR_RETURN_IF_ERROR(CheckDeadline(q));
  const ScoreTable& scores = ScoresFlat(q.user, q.topic);
  MBR_RETURN_IF_ERROR(CheckDeadline(q));
  if (q.scoring_mode()) {
    core::Ranking r;
    r.entries.reserve(q.candidates.size());
    for (graph::NodeId v : q.candidates) {
      r.entries.push_back({v, scores.Get(v)});
    }
    return r;
  }
  core::RankingBuilder builder(q);
  for (const auto& [v, s] : scores) {
    builder.Offer(v, s);
  }
  return builder.Take();
}

std::vector<util::ScoredId> ApproxRecommender::RecommendQuery(
    graph::NodeId u, const std::vector<core::WeightedTopic>& query,
    size_t n) const {
  MBR_CHECK(!query.empty());
  combined_.Clear(num_nodes_);
  for (const core::WeightedTopic& wt : query) {
    for (const auto& [v, s] : ScoresFlat(u, wt.topic)) {
      combined_.Add(v, wt.weight * s);
    }
  }
  util::TopK topk(n);
  for (const auto& [v, s] : combined_) {
    if (s > 0.0) topk.Offer(v, s);
  }
  return topk.Take();
}

}  // namespace mbr::landmark
