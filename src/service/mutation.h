#ifndef MBR_SERVICE_MUTATION_H_
#define MBR_SERVICE_MUTATION_H_

// Live graph mutation for the serving path (paper §6).
//
// A MutationApplier owns a persistent dynamic::DeltaGraph plus a
// persistent dynamic::IncrementalAuthority over the warm-start base graph
// and turns wire FOLLOW/UNFOLLOW/RELABEL batches into serving-replica
// updates:
//
//   Apply(batch)  — validate + apply each record to the delta (feeding the
//                   authority counters in true op order), and if anything
//                   applied: build the next graph generation and its
//                   authority index and QueryEngine::Publish() them.
//                   Publish bumps the engine epoch, so the graph epoch
//                   advances exactly once per applied batch and every
//                   cached result keyed on the old epoch becomes
//                   unreachable. The published generation records every
//                   landmark slot stale (its lists are older than its
//                   graph), so an approx reply scored on it is stamped
//                   kStale until a LandmarkRepairer repairs its lists.
//
// One pipeline (DESIGN.md §6.9), O(Δ) per batch: DeltaGraph::MaterializeFrom
// patches only the touched adjacency rows of the previous generation, and
// the authority index is snapshotted from the incremental counters
// (touched rows + changed-max columns) instead of rescanned from the
// graph. With the default authority-refresh period of 1 the per-topic
// maxima are repaired exactly every batch (dirty-topic rescan) and serving
// output is byte-identical to a from-scratch Materialize() plus
// AuthorityIndex — pinned by tests/dynamic_serving_differential_test.cc.
// A refresh period n > 1 is the paper's "re-computed periodically" mode:
// between refreshes the stored maxima are upper bounds, so served
// authority is bounded above by the true values, and the drift is counted
// in mbr_authority_drift_topics_total.
//
// The live generation is the engine's: the applier keeps no copy of it.
// A generation is held as shared_ptrs, so it lives as long as a query,
// a worker or a caller of current_graph() still pins it.
//
// Per-record rejection (out-of-range ids, self-loops, duplicate follows,
// unfollowing an absent edge, empty/out-of-vocabulary label sets) is not
// an error: the batch answer counts applied vs rejected, mirroring the
// MUTATE_ACK wire payload. A batch where nothing applied does not bump
// the epoch.
//
// Thread-safety: Apply() serializes on `apply_mu_` — concurrent wire
// mutators are applied in some total order, each batch atomically with
// respect to queries, which only ever see published generations. Readers
// of current_graph()/current_authority() pin the engine's generation and
// never wait on an Apply().

#include <cstdint>
#include <atomic>
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

struct MutationConfig {
  // Period, in applied batches, of the *exact* per-topic max refresh (the
  // paper's "re-computed periodically"). 1 = repair dirty maxima every
  // batch (byte-identical serving, the default); n > 1 = defer, serving
  // bounded-above authority between refreshes. Surfaced as
  // `mbrec serve --authority-refresh`.
  uint32_t authority_refresh_batches = 1;
};

class MutationApplier {
 public:
  // `base` and `base_authority` are the engine's current generation (its
  // warm start); both must outlive the applier. Counters are registered in
  // the engine's registry.
  MutationApplier(const graph::LabeledGraph& base,
                  const core::AuthorityIndex& base_authority,
                  QueryEngine& engine, const MutationConfig& config = {});

  MutationApplier(const MutationApplier&) = delete;
  MutationApplier& operator=(const MutationApplier&) = delete;

  // Optional: tell `repairer` about every applied batch once it is
  // published, so it counts the slots the batch made stale and wakes its
  // repair thread. A batch with no applied record publishes nothing.
  // Install before serving traffic; the repairer must outlive the applier
  // (or be stopped first).
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

  // The engine's live generation (for tests and the churn bench). The
  // returned pointers stay valid even across later batches. Never waits
  // on an in-progress Apply().
  std::shared_ptr<const graph::LabeledGraph> current_graph() const;
  std::shared_ptr<const core::AuthorityIndex> current_authority() const;

 private:
  bool ApplyOne(const Mutation& m);

  QueryEngine* engine_;
  LandmarkRepairer* repairer_ = nullptr;
  MutationConfig config_;

  // Serializes Apply() end-to-end, and guards the delta overlay, the
  // incremental counters and the refresh cadence.
  mutable std::mutex apply_mu_;
  dynamic::DeltaGraph delta_;
  dynamic::IncrementalAuthority inc_auth_;
  uint32_t batches_since_refresh_ = 0;
  std::atomic<uint64_t> batches_applied_{0};

  obs::Counter* applied_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* authority_refreshes_ = nullptr;
  obs::Counter* authority_drift_ = nullptr;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_MUTATION_H_
