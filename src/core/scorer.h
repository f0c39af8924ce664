#ifndef MBR_CORE_SCORER_H_
#define MBR_CORE_SCORER_H_

// The iterative score computation of §3.3 / Algorithm 1.
//
// Starting from a source node s, one frontier propagation step extends every
// walk by one hop. For walks p: s ❀ v of length k (1-indexed edge positions
// j with edge similarity s_j and end-node authority auth_j):
//
//   total path score   ω_p(t)  = β^k Σ_j α^j s_j(t) auth_j(t)
//   topological scores topo_β  = Σ_p β^|p|,  topo_αβ = Σ_p (αβ)^|p|
//   recommendation     σ(s,v,t) = Σ_p ω_p(t)                 (Equation 1)
//
// maintained incrementally via Proposition 1:
//
//   σ^(k+1)[v][t] += β σ^(k)[u][t] + topo_αβ^(k)[u] · (βα · s(u→v,t) · auth(v,t))
//   topo_β^(k+1)[v]  += β  topo_β^(k)[u]
//   topo_αβ^(k+1)[v] += αβ topo_αβ^(k)[u]
//
// The engine serves all three uses in the paper: exact recommendation
// (converged exploration), landmark pre-processing (Algorithm 1 proper),
// and the query-side shallow BFS of Algorithm 2 (with optional pruning at
// landmark nodes so paths through a landmark are not double-counted, §5.4).
//
// Hot-path layout (DESIGN.md §6.6): the per-query working set — frontier
// triple-buffer and per-node running state — lives in typed spans carved
// from a util::QueryArena, and the scorer variant (Tr / Tr−auth / Tr−sim)
// is a compile-time weight policy, so the inner edge loop carries no
// switch. One traversal skeleton runs over either of two node-state
// layouts carved from the same zeroed block:
//   - a single-topic query (the exact tier, the depth-2 landmark BFS)
//     keeps each node's next and δ of β, αβ and σ and its in-next flag in
//     one 64-byte record, so an edge touches one cache line of its target;
//   - a multi-topic query (landmark pre-processing and repair) keeps rows
//     and accumulates whole σ rows per edge (one max-sim row, one
//     authority row) over contiguous arrays.
// Every σ stays bit-for-bit the per-(edge, topic) arithmetic above. In
// steady state Explore() performs zero heap allocations and returns a
// reference to a reused ExplorationResult.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/authority.h"
#include "core/params.h"
#include "graph/labeled_graph.h"
#include "topics/similarity_matrix.h"
#include "topics/topic.h"
#include "util/arena.h"

namespace mbr::core {

// Scores of every node reached from the source. Node u's scores live at
// index `slot[u]`; nodes not reached have slot kNoSlot. σ is stored only
// for the query's topics: row `slot` holds one column per query topic,
// in ascending topic order, and a topic→column map finds a topic's
// column (DESIGN.md §6.6).
class ExplorationResult {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffff;

  ExplorationResult() { column_.fill(kNoColumn); }

  bool Reached(graph::NodeId v) const { return slot_[v] != kNoSlot; }

  // σ(source, v, t); 0 if unreached or if t was not a query topic.
  double Sigma(graph::NodeId v, topics::TopicId t) const {
    MBR_DCHECK(t < topics::kMaxTopics);
    const uint32_t s = slot_[v];
    const uint8_t c = column_[t];
    if (s == kNoSlot || c == kNoColumn) return 0.0;
    return sigma_[static_cast<size_t>(s) * num_columns_ + c];
  }
  // topo_β(source, v); 0 if unreached.
  double TopoBeta(graph::NodeId v) const {
    uint32_t s = slot_[v];
    return s == kNoSlot ? 0.0 : topo_beta_[s];
  }
  // topo_αβ(source, v); 0 if unreached.
  double TopoAlphaBeta(graph::NodeId v) const {
    uint32_t s = slot_[v];
    return s == kNoSlot ? 0.0 : topo_alphabeta_[s];
  }

  // All reached nodes, in first-reached order (source excluded: a node's
  // score counts walks of length >= 1, so the source appears only if it
  // lies on a cycle).
  const std::vector<graph::NodeId>& reached() const { return reached_; }

  uint32_t iterations_run() const { return iterations_run_; }
  bool converged() const { return converged_; }

 private:
  friend class Scorer;

  static constexpr uint8_t kNoColumn = 0xff;

  // Restores the empty state for a query over the topics qt[0..qn), in
  // O(|previously reached|), keeping every buffer's capacity: after warmup
  // a reused result never allocates.
  void Reset(graph::NodeId num_nodes, const topics::TopicId* qt, size_t qn) {
    if (slot_.size() != num_nodes) {
      slot_.assign(num_nodes, kNoSlot);
    } else {
      for (graph::NodeId v : reached_) slot_[v] = kNoSlot;
    }
    reached_.clear();
    sigma_.clear();
    topo_beta_.clear();
    topo_alphabeta_.clear();
    column_.fill(kNoColumn);
    for (size_t qi = 0; qi < qn; ++qi) {
      column_[qt[qi]] = static_cast<uint8_t>(qi);
    }
    num_columns_ = qn;
    iterations_run_ = 0;
    converged_ = false;
  }

  // Gives the newly reached node v a zeroed slot of `width` σ columns.
  uint32_t Append(graph::NodeId v, size_t width) {
    const auto slot = static_cast<uint32_t>(reached_.size());
    slot_[v] = slot;
    reached_.push_back(v);
    if (width == 1) {
      sigma_.push_back(0.0);
    } else {
      sigma_.resize(sigma_.size() + width, 0.0);
    }
    topo_beta_.push_back(0.0);
    topo_alphabeta_.push_back(0.0);
    return slot;
  }

  std::array<uint8_t, topics::kMaxTopics> column_;  // topic -> σ column
  size_t num_columns_ = 0;                          // |query topics|
  std::vector<uint32_t> slot_;
  std::vector<graph::NodeId> reached_;
  std::vector<double> sigma_;  // reached x num_columns_
  std::vector<double> topo_beta_;
  std::vector<double> topo_alphabeta_;
  uint32_t iterations_run_ = 0;
  bool converged_ = false;
};

// Thread-affinity contract: a Scorer is SINGLE-CALLER. Explore() reuses
// internal scratch buffers AND returns a reference to a reused result —
// repeated queries cost O(|vicinity|), not O(|graph|) — which means two
// overlapping Explore() calls on the same instance would corrupt each
// other's state, and a returned reference is invalidated by the next
// Explore() (copy-construct an ExplorationResult to keep one). Create one
// Scorer per worker thread (landmark::LandmarkIndex and
// service::QueryEngine both do this); overlapping calls on one instance
// are a programmer error and abort via a reentrancy check. The referenced
// graph / authority / similarity objects are only read, so any number of
// scorers may share them.
class Scorer {
 public:
  // All references must outlive the scorer. The similarity matrix must
  // cover the graph's topic vocabulary. `arena` (optional) supplies the
  // scratch storage: pass a per-worker arena to keep the warm working set
  // alive across scorer rebuilds (service::QueryEngine::BuildWorkers); the
  // arena must outlive the scorer and must not be shared with another live
  // scorer. When null, the scorer owns a private arena.
  Scorer(const graph::LabeledGraph& g, const AuthorityIndex& authority,
         const topics::SimilarityMatrix& sim, const ScoreParams& params,
         util::QueryArena* arena = nullptr);

  // Runs Algorithm 1 from `source` for all topics in `query_topics`,
  // exploring at most params.max_depth hops or until the added score mass
  // falls below params.tolerance. If `pruned` is non-null, nodes for which
  // (*pruned)[v] is true have their scores computed but are not expanded
  // (Algorithm 2's landmark pruning). The returned reference is owned by
  // the scorer and valid until the next Explore() call.
  const ExplorationResult& Explore(
      graph::NodeId source, topics::TopicSet query_topics,
      const std::vector<bool>* pruned = nullptr) const;

  // Re-points the scorer at a new graph generation without discarding the
  // warmed arena scratch (the O(Δ) rebind path, DESIGN.md §6.9). The new
  // graph must keep the old node-id and topic universe — the scratch spans
  // are carved per num_nodes — and the authority index must match it. Must
  // not race an in-flight Explore() (an engine worker calls this between
  // queries, when its pinned generation changed).
  void Rebind(const graph::LabeledGraph& g, const AuthorityIndex& authority);

  const ScoreParams& params() const { return params_; }

  // The per-edge topical weight ω_{u→v}(t) = βα · s(u→v,t) · auth(v,t),
  // honouring the configured ablation variant. `labels` are the edge's
  // labels. Exposed for tests; the hot loop uses the compile-time policy
  // equivalents instead (see scorer.cc).
  double EdgeTopicWeight(topics::TopicSet labels, graph::NodeId v,
                         topics::TopicId t) const;

 private:
  // One node's running state in a single-topic exploration: next and δ
  // of topo_β, topo_αβ and σ, and the in-next flag, in one cache line.
  struct alignas(64) NodeRecord {
    double next_b, next_ab, next_sigma;
    double delta_b, delta_ab, delta_sigma;
    uint64_t in_next;
  };
  static_assert(sizeof(NodeRecord) == 64);

  // The two node-state layouts ExploreImpl runs over (scorer.cc): one
  // NodeRecord per node for |Q| = 1, rows for any other |Q|.
  class RecordState;
  class RowState;

  // Algorithm 1's traversal. One instantiation per (ScoreVariant, layout):
  // Explore() dispatches once per query, so the inner loop is branch-free
  // on the variant and the single-topic width is a compile-time 1.
  template <typename WeightPolicy, typename State>
  const ExplorationResult& ExploreImpl(graph::NodeId source, State state,
                                       const std::vector<bool>* pruned) const;

  // (Re)carves the arena-backed scratch spans when the needed capacity
  // grows (first query, or a wider topic set than ever seen). The node
  // state is zero-filled afterwards; between queries every touched entry
  // is restored to zero, so a fresh call never sees stale state.
  void EnsureScratch(size_t qn) const;

  // Pointers (not references) so Rebind() can swap generations in place;
  // never null, and only read.
  const graph::LabeledGraph* g_;
  const AuthorityIndex* authority_;
  const topics::SimilarityMatrix& sim_;
  ScoreParams params_;

  std::unique_ptr<util::QueryArena> owned_arena_;
  util::QueryArena* arena_;  // owned_arena_.get() or the caller's

  // Arena-backed scratch. One zeroed block holds the node state of either
  // layout, sized for the larger: records_ spans the block (node v's
  // record is records_[v]) and the rows are carved from its front, so a
  // scorer that alternates widths re-zeroes nothing. delta/next rows are
  // n wide; sigma rows are packed n x scratch_qn_ (stride = the query's
  // topic count).
  mutable std::span<NodeRecord> records_;
  mutable std::span<double> delta_b_, delta_ab_, next_b_, next_ab_;
  mutable std::span<double> delta_sigma_, next_sigma_;
  mutable std::span<uint8_t> in_next_;
  // Frontier triple-buffer: current, next (deduped), and surviving-after-
  // pruning; each holds at most n node ids.
  mutable std::span<graph::NodeId> frontier_buf_, next_buf_, new_buf_;
  // Dense query-topic list (kMaxTopics wide).
  mutable std::span<topics::TopicId> qt_;
  // Transposed similarity table, filled per Explore: simt_[x * qn + qi] =
  // Sim(x, qt[qi]) clamped below at 0, plus an all-zero row x = nt for
  // unlabeled edges. An edge's max-sim row is one label's row, or the
  // element-wise max over its labels ((kMaxTopics + 1) x kMaxTopics).
  mutable std::span<double> simt_;
  // Rows of the multi-topic step, each kMaxTopics wide: β·δσ(u) hoisted
  // per frontier node, a multi-label edge's max-sim row, and a gathered
  // authority row when the query topics are not the whole vocabulary.
  mutable std::span<double> bdsig_, msrow_, garow_;
  mutable size_t scratch_nodes_ = 0;  // 0 = scratch not yet carved
  mutable size_t scratch_qn_ = 0;

  // Reused across queries; handed out by const reference.
  mutable ExplorationResult result_;
  // Reentrancy guard enforcing the single-caller contract above.
  mutable std::atomic<bool> exploring_{false};
};

}  // namespace mbr::core

#endif  // MBR_CORE_SCORER_H_
