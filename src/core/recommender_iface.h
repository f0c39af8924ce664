#ifndef MBR_CORE_RECOMMENDER_IFACE_H_
#define MBR_CORE_RECOMMENDER_IFACE_H_

// Common interface all recommenders implement (Tr and its ablations, Katz,
// TwitterRank, the neighborhood/SALSA baselines, and the landmark-based
// approximation), so the evaluation harness, the serving engine, and the
// benchmark binaries can treat them uniformly.
//
// The request is a value object (core::Query) rather than positional
// arguments: it carries the ranking size, an exclusion list, an optional
// deadline, and — for the evaluation protocol — an explicit candidate list
// to score. Implementations answer with util::Result<Ranking> so deadline
// expiry and invalid requests travel the normal error channel
// (kDeadlineExceeded is also counted in the default obs registry).

#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/labeled_graph.h"
#include "topics/topic.h"
#include "util/status.h"
#include "util/top_k.h"

namespace mbr::core {

// Serving tiers, ordered by degradation (lower = higher fidelity). The
// serving engine's degradation ladder (DESIGN.md §6.8) walks down this
// order under pressure; offline recommenders always produce the tier that
// names their algorithm (core::Scorer → kExact, landmark approximation →
// kApprox). The numeric values are the wire encoding (the RESULT
// `served_tier` byte) — do not reorder.
enum class Tier : uint8_t {
  kExact = 0,   // converged exact Tr scoring
  kApprox = 1,  // landmark approximation (Algorithm 2)
  kStale = 2,   // dead-epoch cached result (last resort before shedding)
};

inline const char* TierName(Tier t) {
  switch (t) {
    case Tier::kExact:
      return "exact";
    case Tier::kApprox:
      return "approx";
    case Tier::kStale:
      return "stale";
  }
  return "unknown";
}

// A single recommendation request.
//
// Two modes, selected by `candidates`:
//  - top-n (candidates empty): rank the best `top_n` users for `user` on
//    `topic`, excluding `user` itself and every id in `exclude`.
//  - candidate scoring (candidates non-empty): return one entry per
//    candidate, in the given order, carrying σ(user, candidate, topic)
//    (0 for unreachable candidates). `top_n` and `exclude` are ignored —
//    the evaluation protocol wants raw scores for its own ranking.
struct Query {
  graph::NodeId user = 0;
  topics::TopicId topic = 0;
  uint32_t top_n = 10;
  std::vector<graph::NodeId> exclude;
  std::vector<graph::NodeId> candidates;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // The most degraded tier the caller accepts (default: anything). A
  // latency-tolerant caller pins `WithMinTier(Tier::kExact)` to opt out of
  // the degradation ladder entirely; the serving engine never serves a
  // tier numerically above this. Offline recommenders ignore it.
  Tier min_tier = Tier::kStale;

  static Query TopN(graph::NodeId user, topics::TopicId topic,
                    uint32_t top_n) {
    Query q;
    q.user = user;
    q.topic = topic;
    q.top_n = top_n;
    return q;
  }

  static Query Scores(graph::NodeId user, topics::TopicId topic,
                      std::vector<graph::NodeId> candidates) {
    Query q;
    q.user = user;
    q.topic = topic;
    q.candidates = std::move(candidates);
    return q;
  }

  Query&& WithExclude(std::vector<graph::NodeId> ids) && {
    exclude = std::move(ids);
    return std::move(*this);
  }

  Query&& WithDeadline(std::chrono::milliseconds budget) && {
    deadline = std::chrono::steady_clock::now() + budget;
    return std::move(*this);
  }

  Query&& WithMinTier(Tier t) && {
    min_tier = t;
    return std::move(*this);
  }

  bool scoring_mode() const { return !candidates.empty(); }

  bool expired() const {
    return deadline.has_value() && std::chrono::steady_clock::now() > *deadline;
  }

  // Linear scan: exclusion lists are user-sized (followees), not graph-sized.
  bool IsExcluded(graph::NodeId v) const {
    for (graph::NodeId e : exclude) {
      if (e == v) return true;
    }
    return false;
  }
};

// A ranked (or, in scoring mode, candidate-ordered) answer: a pure ranked
// list. Serving metadata (graph epoch, serving tier, cache provenance)
// lives in service::ServeMeta — offline recommenders have no epoch or
// tier notion, so the list is all they produce.
struct Ranking {
  std::vector<util::ScoredId> entries;
};

// Accumulates a Ranking for a top-n Query, applying the shared exclusion
// rules (query user, exclude list, non-positive scores) so implementations
// only iterate their score source and Offer().
class RankingBuilder {
 public:
  explicit RankingBuilder(const Query& q) : q_(q), topk_(q.top_n > 0 ? q.top_n : 1) {}

  void Offer(graph::NodeId v, double score) {
    if (score <= 0.0) return;
    OfferAllowZero(v, score);
  }

  // For scores where zero is a legitimate rank position (e.g. global
  // PageRank-style vectors that list every node).
  void OfferAllowZero(graph::NodeId v, double score) {
    if (v == q_.user || q_.IsExcluded(v)) return;
    topk_.Offer(v, score);
  }

  Ranking Take() {
    Ranking r;
    if (q_.top_n > 0) r.entries = topk_.Take();
    return r;
  }

 private:
  const Query& q_;
  util::TopK topk_;
};

class Recommender {
 public:
  virtual ~Recommender() = default;

  // Display name ("Tr", "Katz", "TwitterRank", ...).
  virtual std::string name() const = 0;

  // Answers one query (both modes). Deadline expiry yields
  // kDeadlineExceeded; malformed requests yield kInvalidArgument.
  virtual util::Result<Ranking> Recommend(const Query& q) const = 0;

  // Answers each query independently, results in request order. The default
  // implementation is a sequential loop; implementations with batching
  // leverage (shared exploration, worker pools) override it.
  virtual std::vector<util::Result<Ranking>> RecommendBatch(
      std::span<const Query> queries) const;

  // ---- Conveniences over Recommend(). Non-virtual: every caller funnels
  // through the request-object entry point above.

  // Top-n entries for `u` on `t`; aborts on error (in-process callers with
  // no deadline — CLI, tests, benchmarks).
  std::vector<util::ScoredId> TopN(graph::NodeId u, topics::TopicId t,
                                   size_t n) const;

  // Scores for an explicit candidate list, in candidate order (the
  // evaluation protocol ranks 1 true endpoint + 1000 sampled accounts).
  std::vector<double> CandidateScores(
      graph::NodeId u, topics::TopicId t,
      const std::vector<graph::NodeId>& candidates) const;

 protected:
  // Returns kDeadlineExceeded (and counts it in the default registry) when
  // `q` is past its deadline; implementations call this on entry and at
  // natural re-check points of long computations.
  static util::Status CheckDeadline(const Query& q);
};

}  // namespace mbr::core

#endif  // MBR_CORE_RECOMMENDER_IFACE_H_
