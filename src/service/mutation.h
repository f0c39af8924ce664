#ifndef MBR_SERVICE_MUTATION_H_
#define MBR_SERVICE_MUTATION_H_

// Live graph mutation for the serving path (ROADMAP item 2, paper §6).
//
// A MutationApplier owns a persistent dynamic::DeltaGraph plus a
// persistent dynamic::IncrementalAuthority over the warm-start base graph
// and turns wire FOLLOW/UNFOLLOW/RELABEL batches into serving-replica
// updates:
//
//   Apply(batch)  — validate + apply each record to the delta (and, on the
//                   incremental pipeline, feed the authority counters in
//                   true op order), and if anything applied: produce a new
//                   graph generation, a matching authority index, and
//                   QueryEngine::Rebind() onto them. Rebind bumps the
//                   engine epoch, so the graph epoch advances exactly
//                   once per applied batch and every cached result keyed
//                   on the old epoch becomes unreachable.
//
// Pipelines (DESIGN.md §6.9). The default kIncremental path costs O(Δ)
// per batch: DeltaGraph::MaterializeFrom patches only the touched
// adjacency rows of the previous generation, and the authority index is
// snapshotted from the incremental counters (touched rows + changed-max
// columns) instead of rescanned from the graph. With the default
// authority-refresh period of 1 the per-topic maxima are repaired exactly
// every batch (dirty-topic rescan) and serving output is byte-identical
// to kFullRebuild — pinned by tests/dynamic_serving_differential_test.cc.
// A refresh period n > 1 is the paper's "re-computed periodically" mode:
// between refreshes the stored maxima are upper bounds, so served
// authority is bounded above by the true values, and the drift is counted
// in mbr_authority_drift_topics_total.
//
// Graph generations are held as shared_ptrs: the previous generation is
// released only after Rebind() has drained the queries that might still
// be scoring against it, and the optional LandmarkRepairer keeps its own
// reference to the generation it repairs against, so a generation can
// never be freed under a reader.
//
// Per-record rejection (out-of-range ids, self-loops, duplicate follows,
// unfollowing an absent edge, empty/out-of-vocabulary label sets) is not
// an error: the batch answer counts applied vs rejected, mirroring the
// MUTATE_ACK wire payload. A batch where nothing applied does not bump
// the epoch.
//
// Thread-safety: Apply() serializes on `apply_mu_` — concurrent wire
// mutators are applied in some total order, each batch atomically with
// respect to queries (which only ever see fully materialized generations
// via Rebind's exclusive lock). The published generation pointers are
// guarded by the separate narrow `mu_`, which is never held across
// materialization or Rebind — current_graph()/current_authority() readers
// get an answer immediately even while a batch is draining the engine.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/authority.h"
#include "dynamic/churn.h"
#include "dynamic/delta_graph.h"
#include "dynamic/incremental_authority.h"
#include "graph/labeled_graph.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "topics/topic.h"

namespace mbr::service {

class LandmarkRepairer;

enum class MutationOp : uint8_t { kFollow, kUnfollow, kRelabel };

const char* MutationOpName(MutationOp op);

struct Mutation {
  MutationOp op = MutationOp::kFollow;
  graph::NodeId src = 0;
  graph::NodeId dst = 0;
  topics::TopicSet labels;  // ignored for kUnfollow
};

// One churn round (dynamic::ApplyChurnRound) as one batch: its UNFOLLOWs,
// then its FOLLOWs, in the order the round applied them.
std::vector<Mutation> ChurnBatch(const dynamic::ChurnRound& round);

struct MutationOutcome {
  uint32_t applied = 0;
  uint32_t rejected = 0;
  uint64_t graph_epoch = 0;  // engine epoch after the batch
};

// How Apply() turns an applied batch into the next serving generation.
struct MutationConfig {
  enum class Pipeline : uint8_t {
    // Full DeltaGraph::Materialize + AuthorityIndex graph rescan per
    // batch — O(graph). Kept runnable for differential tests and the
    // apply-latency bench baseline.
    kFullRebuild,
    // O(Δ) path: MaterializeFrom + counter-snapshot authority.
    kIncremental,
  };
  Pipeline pipeline = Pipeline::kIncremental;
  // Period, in applied batches, of the *exact* per-topic max refresh (the
  // paper's "re-computed periodically"). 1 = repair dirty maxima every
  // batch (byte-identical serving, the default); n > 1 = defer, serving
  // bounded-above authority between refreshes. Only meaningful on the
  // incremental pipeline. Surfaced as `mbrec serve --authority-refresh`.
  uint32_t authority_refresh_batches = 1;
};

class MutationApplier {
 public:
  // `base` and `base_authority` are the generation the engine is currently
  // bound to (warm start); both must outlive the applier. Counters are
  // registered in the engine's registry.
  MutationApplier(const graph::LabeledGraph& base,
                  const core::AuthorityIndex& base_authority,
                  QueryEngine& engine, const MutationConfig& config = {});

  MutationApplier(const MutationApplier&) = delete;
  MutationApplier& operator=(const MutationApplier&) = delete;

  // Optional: notify a repairer after every applied batch. Install before
  // serving traffic; the repairer must outlive the applier (or be stopped
  // first).
  void SetRepairer(LandmarkRepairer* repairer) { repairer_ = repairer; }

  // Applies one ordered batch. Never throws on bad records — they count
  // as rejected. Thread-safe.
  MutationOutcome Apply(std::span<const Mutation> batch);

  uint64_t batches_applied() const;

  const MutationConfig& config() const { return config_; }

  // Topics whose stored authority max is currently an unverified upper
  // bound (0 whenever serving is exact; can be non-zero only with an
  // authority-refresh period > 1).
  int authority_drift_topics() const;

  // The live generation (for tests and the churn bench). The returned
  // pointers stay valid even across later batches. Never blocks on an
  // in-progress Apply()'s materialization or rebind.
  std::shared_ptr<const graph::LabeledGraph> current_graph() const;
  std::shared_ptr<const core::AuthorityIndex> current_authority() const;

 private:
  bool ApplyOne(const Mutation& m);

  QueryEngine* engine_;
  LandmarkRepairer* repairer_ = nullptr;
  MutationConfig config_;

  // Serializes Apply() end-to-end. Ordered before mu_ (Apply takes
  // apply_mu_ then briefly mu_; nothing takes them in the other order).
  mutable std::mutex apply_mu_;
  // Guarded by apply_mu_: the delta overlay, the incremental counters,
  // and the refresh cadence.
  dynamic::DeltaGraph delta_;
  dynamic::IncrementalAuthority inc_auth_;
  uint32_t batches_since_refresh_ = 0;

  // Narrow state lock: published generation + batch count only.
  mutable std::mutex mu_;
  std::shared_ptr<const graph::LabeledGraph> cur_graph_;
  std::shared_ptr<const core::AuthorityIndex> cur_authority_;
  uint64_t batches_applied_ = 0;

  obs::Counter* applied_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* authority_refreshes_ = nullptr;
  obs::Counter* authority_drift_ = nullptr;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_MUTATION_H_
