#include "core/scorer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/span.h"

namespace mbr::core {

namespace {

// Convergence telemetry for Proposition 3's bound: how many iterations the
// frontier actually needed vs the β-derived depth cap, and how wide each
// expansion was.
struct ScorerMetrics {
  obs::Histogram* frontier_size;
  obs::Histogram* iterations;
  obs::Counter* converged;
  obs::Counter* depth_capped;

  static const ScorerMetrics& Get() {
    static ScorerMetrics m = [] {
      obs::Registry& r = obs::Registry::Default();
      ScorerMetrics out;
      out.frontier_size = r.GetHistogram(
          "mbr_scorer_frontier_size",
          "Frontier width at each exploration iteration.");
      out.iterations = r.GetHistogram(
          "mbr_scorer_iterations",
          "Iterations run per exploration before convergence or depth cap.");
      out.converged = r.GetCounter(
          "mbr_scorer_converged_total",
          "Explorations that converged (tolerance or exhausted frontier).");
      out.depth_capped = r.GetCounter(
          "mbr_scorer_depth_capped_total",
          "Explorations stopped by max_depth with frontier mass remaining.");
      return out;
    }();
    return m;
  }
};

// Enforces the single-caller contract: aborts if two Explore() calls on the
// same Scorer ever overlap (e.g. the instance was shared across threads).
class ExploreGuard {
 public:
  explicit ExploreGuard(std::atomic<bool>& flag) : flag_(flag) {
    MBR_CHECK(!flag_.exchange(true, std::memory_order_acquire) &&
              "Scorer is single-caller: create one Scorer per thread");
  }
  ~ExploreGuard() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool>& flag_;
};

// max_{x in labels} srow[x] — MaxSim against a precomputed similarity row.
// The max over a set is order-independent, so this is bit-identical to
// SimilarityMatrix::MaxSim without the per-label triangular-index math.
inline double RowMaxSim(const double* srow, topics::TopicSet labels) {
  double best = 0.0;
  for (topics::TopicId x : labels) {
    const double s = srow[x];
    if (s > best) best = s;
  }
  return best;
}

// Compile-time weight policies, one per ScoreVariant. Each reproduces
// EdgeTopicWeight's arithmetic bit-for-bit (`ab` is β·α multiplied in the
// same order), but is inlined into the edge loop with no per-edge switch.
//   Weight: one (edge, topic) weight of a single-topic query; `srow` is
//     the query topic's similarity column, `arow` the target's authority
//     row.
//   Accumulate: a multi-topic query's whole σ row for one edge,
//     nsig[qi] += β·δσ(u)[qi] + δ_αβ(u) · ω(qi), from the edge's max-sim
//     row `ms` and the target's authority row `arow` over the query
//     topics (each read only if the variant uses it).
struct FullWeight {  // Tr: edge similarity x authority
  static constexpr bool kUsesSim = true;
  static constexpr bool kUsesAuth = true;
  static double Weight(const double* srow, const double* arow, double ab,
                       topics::TopicSet labels, topics::TopicId t) {
    return ab * RowMaxSim(srow, labels) * arow[t];
  }
  static void Accumulate(double* __restrict nsig,
                         const double* __restrict bdsig, double dab,
                         double ab, const double* __restrict ms,
                         const double* __restrict arow, size_t qn) {
    for (size_t qi = 0; qi < qn; ++qi) {
      nsig[qi] += bdsig[qi] + dab * (ab * ms[qi] * arow[qi]);
    }
  }
};

struct NoAuthWeight {  // Tr−auth: edge similarity only
  static constexpr bool kUsesSim = true;
  static constexpr bool kUsesAuth = false;
  static double Weight(const double* srow, const double* /*arow*/, double ab,
                       topics::TopicSet labels, topics::TopicId /*t*/) {
    return ab * RowMaxSim(srow, labels);
  }
  static void Accumulate(double* __restrict nsig,
                         const double* __restrict bdsig, double dab,
                         double ab, const double* __restrict ms,
                         const double* /*arow*/, size_t qn) {
    for (size_t qi = 0; qi < qn; ++qi) {
      nsig[qi] += bdsig[qi] + dab * (ab * ms[qi]);
    }
  }
};

struct NoSimWeight {  // Tr−sim: authority only (similarity term = 1)
  static constexpr bool kUsesSim = false;
  static constexpr bool kUsesAuth = true;
  static double Weight(const double* /*srow*/, const double* arow, double ab,
                       topics::TopicSet /*labels*/, topics::TopicId t) {
    return ab * arow[t];
  }
  static void Accumulate(double* __restrict nsig,
                         const double* __restrict bdsig, double dab,
                         double ab, const double* /*ms*/,
                         const double* __restrict arow, size_t qn) {
    for (size_t qi = 0; qi < qn; ++qi) {
      nsig[qi] += bdsig[qi] + dab * (ab * arow[qi]);
    }
  }
};

// The edge's max-sim row over the query topics: the zero row for an
// unlabeled edge, its one label's row, or the element-wise max over its
// labels (written to msrow). simt rows are clamped below at 0, so this
// equals RowMaxSim's max-from-0 for every topic bit-for-bit.
inline const double* MaxSimRow(const double* simt, int nt, size_t qn,
                               double* msrow, topics::TopicSet labels) {
  uint64_t bits = labels.bits();
  if (bits == 0) return simt + static_cast<size_t>(nt) * qn;
  const double* first =
      simt + static_cast<size_t>(__builtin_ctzll(bits)) * qn;
  bits &= bits - 1;
  if (bits == 0) return first;
  for (size_t qi = 0; qi < qn; ++qi) msrow[qi] = first[qi];
  do {
    const double* row = simt + static_cast<size_t>(__builtin_ctzll(bits)) * qn;
    for (size_t qi = 0; qi < qn; ++qi) {
      if (row[qi] > msrow[qi]) msrow[qi] = row[qi];
    }
    bits &= bits - 1;
  } while (bits != 0);
  return msrow;
}

}  // namespace

Scorer::Scorer(const graph::LabeledGraph& g, const AuthorityIndex& authority,
               const topics::SimilarityMatrix& sim, const ScoreParams& params,
               util::QueryArena* arena)
    : g_(&g), authority_(&authority), sim_(sim), params_(params) {
  MBR_CHECK(sim.num_topics() >= g.num_topics());
  MBR_CHECK(authority.num_topics() == g.num_topics());
  MBR_CHECK(params.beta > 0.0 && params.beta < 1.0);
  MBR_CHECK(params.alpha > 0.0 && params.alpha <= 1.0);
  if (arena != nullptr) {
    arena_ = arena;
  } else {
    owned_arena_ = std::make_unique<util::QueryArena>();
    arena_ = owned_arena_.get();
  }
}

void Scorer::Rebind(const graph::LabeledGraph& g,
                    const AuthorityIndex& authority) {
  MBR_CHECK(!exploring_.load(std::memory_order_acquire) &&
            "Rebind must not race an in-flight Explore");
  MBR_CHECK(g.num_nodes() == g_->num_nodes());
  MBR_CHECK(g.num_topics() == g_->num_topics());
  MBR_CHECK(authority.num_topics() == g.num_topics());
  g_ = &g;
  authority_ = &authority;
}

double Scorer::EdgeTopicWeight(topics::TopicSet labels, graph::NodeId v,
                               topics::TopicId t) const {
  double s;
  switch (params_.variant) {
    case ScoreVariant::kFull:
      s = sim_.MaxSim(labels, t);
      break;
    case ScoreVariant::kNoAuth:
      s = sim_.MaxSim(labels, t);
      return params_.beta * params_.alpha * s;
    case ScoreVariant::kNoSim:
      s = 1.0;
      break;
    default:
      // An unknown variant must never silently zero every score.
      MBR_CHECK(false && "unknown ScoreVariant");
      __builtin_unreachable();
  }
  return params_.beta * params_.alpha * s * authority_->Authority(v, t);
}

void Scorer::EnsureScratch(size_t qn) const {
  const graph::NodeId n = g_->num_nodes();
  const size_t want_qn = std::max<size_t>(qn, 1);
  if (scratch_nodes_ == n && want_qn <= scratch_qn_) return;

  scratch_nodes_ = n;
  scratch_qn_ = std::max(want_qn, scratch_qn_);
  arena_->Reset();
  // The node state: n records, or the rows (four n-wide doubles, two
  // n x scratch_qn_ σ rows, n in-next bytes), whichever is larger. The
  // rows are carved from the front of the same block.
  const size_t nodes = n;
  const size_t sig = nodes * scratch_qn_;
  const size_t row_doubles = 4 * nodes + 2 * sig;
  const size_t row_bytes = row_doubles * sizeof(double) + nodes;
  records_ = arena_->AllocSpan<NodeRecord>(std::max(
      nodes, (row_bytes + sizeof(NodeRecord) - 1) / sizeof(NodeRecord)));
  double* const rows = reinterpret_cast<double*>(records_.data());
  delta_b_ = {rows, nodes};
  delta_ab_ = {rows + nodes, nodes};
  next_b_ = {rows + 2 * nodes, nodes};
  next_ab_ = {rows + 3 * nodes, nodes};
  delta_sigma_ = {rows + 4 * nodes, sig};
  next_sigma_ = {rows + 4 * nodes + sig, sig};
  in_next_ = {reinterpret_cast<uint8_t*>(rows + row_doubles), nodes};
  frontier_buf_ = arena_->AllocSpan<graph::NodeId>(n);
  next_buf_ = arena_->AllocSpan<graph::NodeId>(n);
  new_buf_ = arena_->AllocSpan<graph::NodeId>(n);
  qt_ = arena_->AllocSpan<topics::TopicId>(topics::kMaxTopics);
  simt_ = arena_->AllocSpan<double>(
      static_cast<size_t>(topics::kMaxTopics + 1) * topics::kMaxTopics);
  bdsig_ = arena_->AllocSpan<double>(topics::kMaxTopics);
  msrow_ = arena_->AllocSpan<double>(topics::kMaxTopics);
  garow_ = arena_->AllocSpan<double>(topics::kMaxTopics);

  // Establish the all-zero invariant once, over every byte of the block
  // (both layouts read it); queries restore the entries they touch, so
  // this O(n) fill never reruns in steady state.
  std::memset(static_cast<void*>(records_.data()), 0, records_.size_bytes());
}

// The node-state layouts of ExploreImpl. Each hands the skeleton a
// reference to a node's next and δ of β, αβ and σ (a σ row of width()
// doubles) and its in-next flag, and extends every walk ending at
// frontier[0..frontier_n) by one edge (Step): Step writes the distinct
// targets to next_frontier in first-reached order and returns their count.

// |Q| = 1: one NodeRecord per node, σ width a compile-time 1.
class Scorer::RecordState {
 public:
  explicit RecordState(const Scorer& s) : s_(s), rec_(s.records_.data()) {}

  static constexpr size_t width() { return 1; }
  double& NextB(graph::NodeId v) const { return rec_[v].next_b; }
  double& NextAb(graph::NodeId v) const { return rec_[v].next_ab; }
  double* NextSigma(graph::NodeId v) const { return &rec_[v].next_sigma; }
  double& DeltaB(graph::NodeId v) const { return rec_[v].delta_b; }
  double& DeltaAb(graph::NodeId v) const { return rec_[v].delta_ab; }
  double* DeltaSigma(graph::NodeId v) const { return &rec_[v].delta_sigma; }
  uint64_t& InNext(graph::NodeId v) const { return rec_[v].in_next; }

  template <typename WeightPolicy>
  size_t Step(const graph::NodeId* frontier, size_t frontier_n,
              graph::NodeId* next_frontier) const {
    const graph::LabeledGraph& g = *s_.g_;
    const AuthorityIndex& authority = *s_.authority_;
    const double beta = s_.params_.beta;
    const double alphabeta = s_.params_.alpha * s_.params_.beta;
    const double ab = s_.params_.beta * s_.params_.alpha;  // EdgeTopicWeight's
    const double* const simt = s_.simt_.data();
    const topics::TopicId t0 = s_.qt_[0];
    NodeRecord* const rec = rec_;

    size_t next_n = 0;
    for (size_t fi = 0; fi < frontier_n; ++fi) {
      const NodeRecord& ru = rec[frontier[fi]];
      const double db = ru.delta_b;
      const double dab = ru.delta_ab;
      const double dsig = ru.delta_sigma;
      auto nbrs = g.OutNeighbors(frontier[fi]);
      auto labs = g.OutEdgeLabels(frontier[fi]);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const graph::NodeId v = nbrs[i];
        NodeRecord& rv = rec[v];
        if (!rv.in_next) {
          rv.in_next = 1;
          next_frontier[next_n++] = v;
        }
        rv.next_b += beta * db;
        rv.next_ab += alphabeta * dab;
        const double w = WeightPolicy::Weight(
            simt, authority.AuthorityRow(v), ab, labs[i], t0);
        rv.next_sigma += beta * dsig + dab * w;
      }
    }
    return next_n;
  }

 private:
  const Scorer& s_;
  NodeRecord* rec_;
};

// Any other |Q|: n-wide δ/next rows for β and αβ, n x |Q| σ rows and an
// in-next byte per node. Step accumulates a whole σ row per edge
// (DESIGN.md §6.6).
class Scorer::RowState {
 public:
  RowState(const Scorer& s, size_t qn) : s_(s), qn_(qn) {}

  size_t width() const { return qn_; }
  double& NextB(graph::NodeId v) const { return s_.next_b_[v]; }
  double& NextAb(graph::NodeId v) const { return s_.next_ab_[v]; }
  double* NextSigma(graph::NodeId v) const {
    return s_.next_sigma_.data() + static_cast<size_t>(v) * qn_;
  }
  double& DeltaB(graph::NodeId v) const { return s_.delta_b_[v]; }
  double& DeltaAb(graph::NodeId v) const { return s_.delta_ab_[v]; }
  double* DeltaSigma(graph::NodeId v) const {
    return s_.delta_sigma_.data() + static_cast<size_t>(v) * qn_;
  }
  uint8_t& InNext(graph::NodeId v) const { return s_.in_next_[v]; }

  // When the query covers the whole vocabulary (qn == nt: TopicSet
  // iterates ascending, so qt is the identity) the target's authority row
  // is read in place; otherwise its query-topic entries are gathered into
  // garow first.
  template <typename WeightPolicy>
  size_t Step(const graph::NodeId* frontier, size_t frontier_n,
              graph::NodeId* next_frontier) const {
    const graph::LabeledGraph& g = *s_.g_;
    const AuthorityIndex& authority = *s_.authority_;
    const int nt = g.num_topics();
    const size_t qn = qn_;
    const double beta = s_.params_.beta;
    const double alphabeta = s_.params_.alpha * s_.params_.beta;
    const double ab = s_.params_.beta * s_.params_.alpha;  // EdgeTopicWeight's
    const bool in_place = qn == static_cast<size_t>(nt);
    const double* const delta_b = s_.delta_b_.data();
    const double* const delta_ab = s_.delta_ab_.data();
    const double* const delta_sigma = s_.delta_sigma_.data();
    double* const next_b = s_.next_b_.data();
    double* const next_ab = s_.next_ab_.data();
    double* const next_sigma = s_.next_sigma_.data();
    uint8_t* const in_next = s_.in_next_.data();
    const topics::TopicId* const qt = s_.qt_.data();
    const double* const simt = s_.simt_.data();
    double* const bdsig = s_.bdsig_.data();
    double* const msrow = s_.msrow_.data();
    double* const garow = s_.garow_.data();

    size_t next_n = 0;
    for (size_t fi = 0; fi < frontier_n; ++fi) {
      const graph::NodeId u = frontier[fi];
      const double db = delta_b[u];
      const double dab = delta_ab[u];
      const double* dsig = delta_sigma + static_cast<size_t>(u) * qn;
      for (size_t qi = 0; qi < qn; ++qi) bdsig[qi] = beta * dsig[qi];

      auto nbrs = g.OutNeighbors(u);
      auto labs = g.OutEdgeLabels(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const graph::NodeId v = nbrs[i];
        if (!in_next[v]) {
          in_next[v] = 1;
          next_frontier[next_n++] = v;
        }
        next_b[v] += beta * db;
        next_ab[v] += alphabeta * dab;
        const double* ms = nullptr;
        if constexpr (WeightPolicy::kUsesSim) {
          ms = MaxSimRow(simt, nt, qn, msrow, labs[i]);
        }
        const double* arow = nullptr;
        if constexpr (WeightPolicy::kUsesAuth) {
          arow = authority.AuthorityRow(v);
          if (!in_place) {
            for (size_t qi = 0; qi < qn; ++qi) garow[qi] = arow[qt[qi]];
            arow = garow;
          }
        }
        WeightPolicy::Accumulate(next_sigma + static_cast<size_t>(v) * qn,
                                 bdsig, dab, ab, ms, arow, qn);
      }
    }
    return next_n;
  }

 private:
  const Scorer& s_;
  size_t qn_;
};

const ExplorationResult& Scorer::Explore(graph::NodeId source,
                                         topics::TopicSet query_topics,
                                         const std::vector<bool>* pruned)
    const {
  MBR_CHECK(source < g_->num_nodes());
  ExploreGuard guard(exploring_);
  MBR_SPAN("scorer.explore");
  const int nt = g_->num_topics();

  // Dense query-topic list (usually 1 topic at query time, all topics in
  // landmark pre-processing). Sigma scratch rows are packed with stride
  // qt_[0..qn).
  EnsureScratch(static_cast<size_t>(query_topics.size()));
  size_t qn = 0;
  for (topics::TopicId t : query_topics) {
    MBR_CHECK(t < nt);
    qt_[qn++] = t;
  }
  // Transposed similarity table for the query topics ((nt + 1) x qn
  // doubles — negligible next to the exploration itself). Clamping at 0
  // changes no max-from-0, so a single label's row is its max-sim row.
  for (int x = 0; x < nt; ++x) {
    double* row = simt_.data() + static_cast<size_t>(x) * qn;
    for (size_t qi = 0; qi < qn; ++qi) {
      const double sim = sim_.Sim(static_cast<topics::TopicId>(x), qt_[qi]);
      row[qi] = sim > 0.0 ? sim : 0.0;
    }
  }
  std::fill_n(simt_.data() + static_cast<size_t>(nt) * qn, qn, 0.0);

  // The query's width picks the node-state layout.
  const RecordState record(*this);
  const RowState rows(*this, qn);
  switch (params_.variant) {
    case ScoreVariant::kFull:
      return qn == 1 ? ExploreImpl<FullWeight>(source, record, pruned)
                     : ExploreImpl<FullWeight>(source, rows, pruned);
    case ScoreVariant::kNoAuth:
      return qn == 1 ? ExploreImpl<NoAuthWeight>(source, record, pruned)
                     : ExploreImpl<NoAuthWeight>(source, rows, pruned);
    case ScoreVariant::kNoSim:
      return qn == 1 ? ExploreImpl<NoSimWeight>(source, record, pruned)
                     : ExploreImpl<NoSimWeight>(source, rows, pruned);
  }
  MBR_CHECK(false && "unknown ScoreVariant");
  __builtin_unreachable();
}

template <typename WeightPolicy, typename State>
const ExplorationResult& Scorer::ExploreImpl(
    graph::NodeId source, State state, const std::vector<bool>* pruned) const {
  const ScorerMetrics& metrics = ScorerMetrics::Get();
  const size_t qn = state.width();
  const auto clear_delta = [&](graph::NodeId u) {
    state.DeltaB(u) = 0.0;
    state.DeltaAb(u) = 0.0;
    double* dsig = state.DeltaSigma(u);
    for (size_t qi = 0; qi < qn; ++qi) dsig[qi] = 0.0;
  };

  ExplorationResult& result = result_;
  result.Reset(g_->num_nodes(), qt_.data(), qn);

  graph::NodeId* frontier = frontier_buf_.data();
  graph::NodeId* next_frontier = next_buf_.data();
  graph::NodeId* new_frontier = new_buf_.data();
  size_t frontier_n = 0;

  frontier[frontier_n++] = source;
  state.DeltaB(source) = 1.0;
  state.DeltaAb(source) = 1.0;
  // δσ(source) stays 0: σ(u,u)=0 initially (walks of length 0 carry no
  // topical mass).

  uint32_t depth = 0;
  while (depth < params_.max_depth && frontier_n > 0) {
    metrics.frontier_size->Record(frontier_n);
    const size_t next_n = state.template Step<WeightPolicy>(
        frontier, frontier_n, next_frontier);
    double added_mass = 0.0;

    // Clear the consumed deltas.
    for (size_t fi = 0; fi < frontier_n; ++fi) clear_delta(frontier[fi]);

    // Commit the new walk length: accumulate totals, move next -> delta,
    // prune below-epsilon frontier entries and landmark-pruned nodes.
    size_t new_n = 0;
    for (size_t ni = 0; ni < next_n; ++ni) {
      const graph::NodeId v = next_frontier[ni];
      state.InNext(v) = 0;
      uint32_t slot = result.slot_[v];
      if (slot == ExplorationResult::kNoSlot) slot = result.Append(v, qn);
      double& nb = state.NextB(v);
      double& nab = state.NextAb(v);
      double* nsig = state.NextSigma(v);
      result.topo_beta_[slot] += nb;
      result.topo_alphabeta_[slot] += nab;
      double* rsig = result.sigma_.data() + static_cast<size_t>(slot) * qn;
      double node_mass = 0.0;
      for (size_t qi = 0; qi < qn; ++qi) {
        rsig[qi] += nsig[qi];
        node_mass += nsig[qi];
      }
      added_mass += node_mass;

      bool expand = true;
      if (pruned != nullptr && (*pruned)[v]) expand = false;
      if (params_.frontier_epsilon > 0.0 && nb < params_.frontier_epsilon &&
          nab < params_.frontier_epsilon &&
          node_mass < params_.frontier_epsilon) {
        expand = false;
      }
      if (expand) {
        state.DeltaB(v) = nb;
        state.DeltaAb(v) = nab;
        double* dsig = state.DeltaSigma(v);
        for (size_t qi = 0; qi < qn; ++qi) dsig[qi] = nsig[qi];
        new_frontier[new_n++] = v;
      }
      nb = 0.0;
      nab = 0.0;
      for (size_t qi = 0; qi < qn; ++qi) nsig[qi] = 0.0;
    }

    std::swap(frontier, new_frontier);
    frontier_n = new_n;
    ++depth;
    result.iterations_run_ = depth;

    // Algorithm 1 line 15: stop when the newly added average score mass is
    // negligible.
    if (qn > 0) {
      double denom = static_cast<double>(result.reached_.size()) *
                     static_cast<double>(qn);
      if (denom > 0.0 && added_mass / denom < params_.tolerance &&
          depth >= 2) {
        result.converged_ = true;
        break;
      }
    }
  }
  if (frontier_n == 0) {
    result.converged_ = true;
  } else {
    // Restore the invariant: zero the deltas the aborted frontier left.
    for (size_t fi = 0; fi < frontier_n; ++fi) clear_delta(frontier[fi]);
  }
  metrics.iterations->Record(result.iterations_run_);
  if (result.converged_) {
    metrics.converged->Increment();
  } else {
    metrics.depth_capped->Increment();
  }
  return result;
}

}  // namespace mbr::core
