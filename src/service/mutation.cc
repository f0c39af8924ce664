#include "service/mutation.h"

#include "service/landmark_repair.h"

namespace mbr::service {

namespace {

// Labels must be non-empty and inside the graph's topic vocabulary.
bool ValidLabels(topics::TopicSet labels, int num_topics) {
  if (labels.empty()) return false;
  if (num_topics >= 64) return true;
  return (labels.bits() >> num_topics) == 0;
}

}  // namespace

const char* MutationOpName(MutationOp op) {
  switch (op) {
    case MutationOp::kFollow:
      return "follow";
    case MutationOp::kUnfollow:
      return "unfollow";
    case MutationOp::kRelabel:
      return "relabel";
  }
  return "unknown";
}

std::vector<Mutation> ChurnBatch(const dynamic::ChurnRound& round) {
  std::vector<Mutation> batch;
  batch.reserve(round.removed.size() + round.added.size());
  for (const dynamic::EdgeChange& e : round.removed) {
    batch.push_back({MutationOp::kUnfollow, e.src, e.dst, {}});
  }
  for (const dynamic::EdgeChange& e : round.added) {
    batch.push_back({MutationOp::kFollow, e.src, e.dst, e.labels});
  }
  return batch;
}

MutationApplier::MutationApplier(const graph::LabeledGraph& base,
                                 const core::AuthorityIndex& base_authority,
                                 QueryEngine& engine,
                                 const MutationConfig& config)
    : engine_(&engine), config_(config), delta_(&base), inc_auth_(base) {
  const std::shared_ptr<const Generation> gen = engine.generation();
  MBR_CHECK(gen->graph.get() == &base);
  MBR_CHECK(gen->authority.get() == &base_authority);
  obs::Registry& reg = engine.registry();
  applied_total_ = reg.GetCounter("mbr_mutation_applied_total",
                                  "Mutation records applied to the graph.");
  rejected_total_ = reg.GetCounter(
      "mbr_mutation_rejected_total",
      "Mutation records rejected by per-record validation.");
  batches_total_ = reg.GetCounter(
      "mbr_mutation_batches_total",
      "Mutation batches that applied at least one record (epoch bumps).");
  authority_refreshes_ = reg.GetCounter(
      "mbr_authority_refresh_topics_total",
      "Per-topic authority max rescans (targeted dirty repairs plus full "
      "periodic refreshes).");
  authority_drift_ = reg.GetCounter(
      "mbr_authority_drift_topics_total",
      "Topic maxima snapshotted as unverified upper bounds (deferred "
      "refresh), summed over applied batches.");
}

bool MutationApplier::ApplyOne(const Mutation& m) {
  const graph::NodeId n = delta_.num_nodes();
  if (m.src >= n || m.dst >= n || m.src == m.dst) return false;
  const int num_topics = delta_.base().num_topics();
  switch (m.op) {
    case MutationOp::kFollow: {
      if (!ValidLabels(m.labels, num_topics) ||
          !delta_.AddEdge(m.src, m.dst, m.labels)) {
        return false;
      }
      inc_auth_.OnEdgeAdded(m.src, m.dst, m.labels);
      return true;
    }
    case MutationOp::kUnfollow: {
      // The live labels must be captured before the removal erases them.
      const topics::TopicSet old = delta_.EdgeLabels(m.src, m.dst);
      if (!delta_.RemoveEdge(m.src, m.dst)) return false;
      inc_auth_.OnEdgeRemoved(m.src, m.dst, old);
      return true;
    }
    case MutationOp::kRelabel: {
      if (!ValidLabels(m.labels, num_topics)) return false;
      const topics::TopicSet old = delta_.EdgeLabels(m.src, m.dst);
      if (!delta_.RelabelEdge(m.src, m.dst, m.labels)) return false;
      // Mirror the delta's remove + re-add so the counters replay the
      // exact op order.
      inc_auth_.OnEdgeRemoved(m.src, m.dst, old);
      inc_auth_.OnEdgeAdded(m.src, m.dst, m.labels);
      return true;
    }
  }
  return false;
}

MutationOutcome MutationApplier::Apply(std::span<const Mutation> batch) {
  std::lock_guard<std::mutex> apply_lock(apply_mu_);
  MutationOutcome out;
  std::vector<graph::NodeId> touched;
  touched.reserve(batch.size() * 2);
  for (const Mutation& m : batch) {
    if (ApplyOne(m)) {
      ++out.applied;
      touched.push_back(m.src);
      touched.push_back(m.dst);
    } else {
      ++out.rejected;
    }
  }
  applied_total_->Increment(out.applied);
  rejected_total_->Increment(out.rejected);
  if (out.applied > 0) {
    batches_total_->Increment();
    // The previous generation is the engine's: only this applier publishes
    // graphs to it, under apply_mu_.
    const std::shared_ptr<const Generation> prev = engine_->generation();
    auto g = std::make_shared<const graph::LabeledGraph>(
        delta_.MaterializeFrom(*prev->graph, touched));
    if (config_.authority_refresh_batches <= 1) {
      // Exact maxima every batch: targeted O(n)-per-dirty-topic repair
      // keeps the snapshot byte-identical to a from-scratch index.
      authority_refreshes_->Increment(inc_auth_.RefreshDirtyMax());
    } else if (++batches_since_refresh_ >=
               config_.authority_refresh_batches) {
      inc_auth_.RefreshMax();
      batches_since_refresh_ = 0;
      authority_refreshes_->Increment(inc_auth_.num_topics());
    } else {
      // Deferred mode: stored maxima may overestimate, which shrinks
      // the global factor — served authority is bounded above by the
      // true values until the next refresh. Count the drifting topics.
      authority_drift_->Increment(inc_auth_.dirty_topic_count());
    }
    auto auth = std::make_shared<const core::AuthorityIndex>(
        *prev->authority, inc_auth_.Counters(), touched);
    // The published generation's landmark slots are all stale in the same
    // step that serves its graph (Generation::lists_version).
    GenerationChange change;
    change.graph = std::move(g);
    change.authority = std::move(auth);
    engine_->Publish(std::move(change));
    batches_applied_.fetch_add(1, std::memory_order_relaxed);
    if (repairer_ != nullptr) repairer_->OnBatchPublished();
  }
  out.graph_epoch = engine_->params_epoch();
  return out;
}

uint64_t MutationApplier::batches_applied() const {
  return batches_applied_.load(std::memory_order_relaxed);
}

int MutationApplier::authority_drift_topics() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  return inc_auth_.dirty_topic_count();
}

std::shared_ptr<const graph::LabeledGraph> MutationApplier::current_graph()
    const {
  return engine_->generation()->graph;
}

std::shared_ptr<const core::AuthorityIndex>
MutationApplier::current_authority() const {
  return engine_->generation()->authority;
}

}  // namespace mbr::service
