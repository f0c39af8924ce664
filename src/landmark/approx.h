#ifndef MBR_LANDMARK_APPROX_H_
#define MBR_LANDMARK_APPROX_H_

// Fast approximate recommendation (§4.2 / Algorithm 2).
//
// Query-time: a shallow exploration (depth 2 in the paper) from the query
// user u computes σ(u, ·, t), topo_β and topo_{αβ} for the close vicinity,
// pruning expansion at landmark nodes so no walk through a landmark is
// counted twice (§5.4). Every node reached directly contributes its exact
// short-walk score; every landmark λ encountered additionally contributes
// its stored top-n via Proposition 4:
//
//   σ̃_λ(u, v, t) = σ(u, λ, t) · topo_β(λ, v) + topo_{αβ}(u, λ) · σ(λ, v, t)
//
// With pruning on, the result is a lower bound of the exact score (walks
// that neither stay within the vicinity nor pass a landmark are missed).
//
// Estimator choice when pruning is OFF (prune_at_landmarks = false): the
// exploration then walks *through* landmarks, so a short path u ❀ λ ❀ v is
// counted twice — once exactly by the direct σ(u, v, t) term and once
// approximately by λ's Proposition 4 composition. This double count is
// deliberate: it is precisely the quantity the §5.4 pruning ablation
// measures, and de-duplicating it would require per-path bookkeeping that
// Algorithm 2 is designed to avoid. Production serving should keep pruning
// on; tests/landmark_approx_test.cc pins both behaviours against the
// brute-force oracle.
//
// Hot path (DESIGN.md §6.6): score accumulation runs in a reused
// ScoreTable (a dense value array plus a first-touched node list, cleared
// and iterated in O(touched)), the exploration scratch lives in the
// (optionally per-worker) util::QueryArena, and ScoresFlat() hands the
// table out by reference — zero heap allocations per warm query.
// ApproximateScores() is the offline-friendly copy of the same table.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/authority.h"
#include "core/params.h"
#include "core/recommender.h"
#include "core/recommender_iface.h"
#include "core/scorer.h"
#include "landmark/index.h"
#include "topics/similarity_matrix.h"
#include "util/arena.h"

namespace mbr::landmark {

struct ApproxConfig {
  // Exploration depth k of Algorithm 2 (paper: 2).
  uint32_t query_depth = 2;
  // Stop expanding at landmarks (§5.4's pruning). Disabling this is the
  // ablation measuring how much the pruning saves / double-counts: without
  // it, any depth-≤ query_depth path through a landmark contributes both
  // its direct σ term and the landmark's Proposition 4 composition (see the
  // estimator note in the file header). Keep it on in production.
  bool prune_at_landmarks = true;
  core::ScoreParams params;
};

// Telemetry of the last query (Table 6 columns).
struct QueryStats {
  uint32_t landmarks_encountered = 0;
  uint32_t nodes_reached = 0;
  double seconds = 0.0;
};

// One node of the decomposed exploration (the RECOMMEND_PARTIAL shard op,
// DESIGN.md §6.7): the exact per-node quantities the combine loop
// consumes, in first-reached order. Only perfbench's routed layer pass
// still asks for it; the next benchmark change deletes it with the op.
struct DecomposedRecord {
  graph::NodeId node = 0;
  bool is_landmark = false;
  double sigma = 0.0;           // σ(u, node, t)
  double topo_alphabeta = 0.0;  // topo_αβ(u, node); 0 for non-landmarks
};

// σ̃ of one query, accumulated per node: a value array indexed by node and
// the nodes in first-touched order. Adding, clearing and iterating cost
// O(1) per touched node, whatever the graph's size; the dense arrays are
// sized once per graph, so a warm table never allocates. Iteration yields
// (node, σ̃) pairs in first-touched order.
class ScoreTable {
 public:
  // Empties the table for a graph of `num_nodes` nodes.
  void Clear(graph::NodeId num_nodes) {
    for (graph::NodeId v : touched_) {
      value_[v] = 0.0;
      seen_[v] = 0;
    }
    touched_.clear();
    if (value_.size() != num_nodes) {
      value_.assign(num_nodes, 0.0);
      seen_.assign(num_nodes, 0);
      touched_.reserve(num_nodes);
    }
  }

  void Add(graph::NodeId v, double x) {
    if (!seen_[v]) {
      seen_[v] = 1;
      touched_.push_back(v);
    }
    value_[v] += x;
  }

  // σ̃ of v; 0 if v was never touched (or is not a node).
  double Get(graph::NodeId v) const {
    return v < value_.size() ? value_[v] : 0.0;
  }
  size_t size() const { return touched_.size(); }

  class const_iterator {
   public:
    const_iterator(const graph::NodeId* it, const double* value)
        : it_(it), value_(value) {}
    std::pair<graph::NodeId, double> operator*() const {
      return {*it_, value_[*it_]};
    }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return it_ != o.it_; }

   private:
    const graph::NodeId* it_;
    const double* value_;
  };
  const_iterator begin() const { return {touched_.data(), value_.data()}; }
  const_iterator end() const {
    return {touched_.data() + touched_.size(), value_.data()};
  }

 private:
  std::vector<double> value_;
  std::vector<uint8_t> seen_;
  std::vector<graph::NodeId> touched_;
};

// Thread affinity: an ApproxRecommender owns a core::Scorer and reused
// score tables and inherits the scorer's single-caller contract — create
// one instance per serving thread (service::QueryEngine does). The
// landmark index and graph are shared read-only.
class ApproxRecommender : public core::Recommender {
 public:
  // All references must outlive the recommender. `arena` (optional) is
  // handed to the internal Scorer — pass the per-worker arena so scratch
  // survives re-pointing at new generations; nullptr lets the scorer own
  // one.
  ApproxRecommender(const graph::LabeledGraph& g,
                    const core::AuthorityIndex& authority,
                    const topics::SimilarityMatrix& sim,
                    const LandmarkIndex& index, const ApproxConfig& config,
                    util::QueryArena* arena = nullptr);

  std::string name() const override { return "Tr-landmark"; }

  // One ScoresFlat() table, then lookups (scoring mode) or a ranked
  // top-n with exclusions.
  util::Result<core::Ranking> Recommend(const core::Query& q) const override;

  // Weighted multi-topic query Q = {(t_i, w_i)} (§3.2's linear
  // combination), served from the landmark index: Σ_i w_i · σ̃(u, v, t_i).
  std::vector<util::ScoredId> RecommendQuery(
      graph::NodeId u, const std::vector<core::WeightedTopic>& query,
      size_t n) const;

  // Full approximate score table for (u, t): node -> σ̃ (direct + landmark
  // contributions). Stats for the run are written to *stats if non-null.
  // The returned reference is owned by the recommender and valid until the
  // next query on this instance (single-caller, like the scorer).
  const ScoreTable& ScoresFlat(graph::NodeId u, topics::TopicId t,
                               QueryStats* stats = nullptr) const;

  // Offline-friendly copy of ScoresFlat() for callers that keep or merge
  // tables (evaluation harness, distributed simulation, tests).
  std::unordered_map<graph::NodeId, double> ApproximateScores(
      graph::NodeId u, topics::TopicId t, QueryStats* stats = nullptr) const;

  // Re-points the recommender at another serving generation: a graph, its
  // authority and the landmark index whose stored lists match them (a
  // repair publishes a new index rather than editing one). Keeps the warmed
  // arena scratch; same contract as core::Scorer::Rebind (node/topic
  // universe unchanged, no query in flight).
  void Rebind(const graph::LabeledGraph& g,
              const core::AuthorityIndex& authority,
              const LandmarkIndex& index) {
    scorer_.Rebind(g, authority);
    index_ = &index;
  }

  // Runs the same pruned exploration as ScoresFlat(q.user, q.topic) but
  // exports the ordered per-node records instead of the merged table —
  // the landmark list compositions are left to the caller (see
  // net::PartialReply). Honours q's deadline like Recommend(). The query
  // user itself is never emitted (the combine loop skips it on both its
  // terms). Deleted with RECOMMEND_PARTIAL in the next benchmark change.
  util::Status ExploreDecomposed(const core::Query& q,
                                 std::vector<DecomposedRecord>* out) const;

 private:
  const LandmarkIndex* index_;  // never null
  ApproxConfig config_;
  core::Scorer scorer_;
  const graph::NodeId num_nodes_;
  // Reused per-query score tables: direct + composed scores, and the
  // multi-topic combination of RecommendQuery.
  mutable ScoreTable scores_;
  mutable ScoreTable combined_;
};

}  // namespace mbr::landmark

#endif  // MBR_LANDMARK_APPROX_H_
