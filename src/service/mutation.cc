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
    : engine_(&engine),
      config_(config),
      delta_(&base),
      inc_auth_(base),
      // The warm-start generation is caller-owned: hold it with no-op
      // deleters so generation handling is uniform from the first batch.
      cur_graph_(&base, [](const graph::LabeledGraph*) {}),
      cur_authority_(&base_authority, [](const core::AuthorityIndex*) {}) {
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
  const bool incremental =
      config_.pipeline == MutationConfig::Pipeline::kIncremental;
  switch (m.op) {
    case MutationOp::kFollow: {
      if (!ValidLabels(m.labels, num_topics) ||
          !delta_.AddEdge(m.src, m.dst, m.labels)) {
        return false;
      }
      if (incremental) inc_auth_.OnEdgeAdded(m.src, m.dst, m.labels);
      return true;
    }
    case MutationOp::kUnfollow: {
      // The live labels must be captured before the removal erases them.
      const topics::TopicSet old = delta_.EdgeLabels(m.src, m.dst);
      if (!delta_.RemoveEdge(m.src, m.dst)) return false;
      if (incremental) inc_auth_.OnEdgeRemoved(m.src, m.dst, old);
      return true;
    }
    case MutationOp::kRelabel: {
      if (!ValidLabels(m.labels, num_topics)) return false;
      const topics::TopicSet old = delta_.EdgeLabels(m.src, m.dst);
      if (!delta_.RelabelEdge(m.src, m.dst, m.labels)) return false;
      if (incremental) {
        // Mirror the delta's remove + re-add so the counters replay the
        // exact op order.
        inc_auth_.OnEdgeRemoved(m.src, m.dst, old);
        inc_auth_.OnEdgeAdded(m.src, m.dst, m.labels);
      }
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
    // Snapshot the previous generation under the narrow lock, then build
    // the next one without holding it — readers of current_graph() /
    // current_authority() never wait on materialization or the rebind
    // drain. prev_* keeps the old generation alive until Rebind returns.
    std::shared_ptr<const graph::LabeledGraph> prev_graph;
    std::shared_ptr<const core::AuthorityIndex> prev_auth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      prev_graph = cur_graph_;
      prev_auth = cur_authority_;
    }
    std::shared_ptr<const graph::LabeledGraph> g;
    std::shared_ptr<const core::AuthorityIndex> auth;
    if (config_.pipeline == MutationConfig::Pipeline::kIncremental) {
      g = std::make_shared<graph::LabeledGraph>(
          delta_.MaterializeFrom(*prev_graph, touched));
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
      auth = std::make_shared<core::AuthorityIndex>(
          *prev_auth, inc_auth_.Counters(), touched);
    } else {
      g = std::make_shared<graph::LabeledGraph>(delta_.Materialize());
      auth = std::make_shared<core::AuthorityIndex>(*g);
    }
    // Every landmark slot goes stale before the generation is published,
    // so no reply scored on it is stamped kApprox from older lists.
    if (repairer_ != nullptr) repairer_->MarkAllStale();
    // Rebind blocks until in-flight queries drain, then bumps the epoch;
    // only after it returns is it safe to drop the previous generation.
    engine_->Rebind(*g, *auth);
    {
      std::lock_guard<std::mutex> lock(mu_);
      cur_graph_ = g;
      cur_authority_ = auth;
      ++batches_applied_;
    }
    if (repairer_ != nullptr) {
      repairer_->OnBatchApplied(std::move(g), std::move(auth));
    }
  }
  out.graph_epoch = engine_->params_epoch();
  return out;
}

uint64_t MutationApplier::batches_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_applied_;
}

int MutationApplier::authority_drift_topics() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  return inc_auth_.dirty_topic_count();
}

std::shared_ptr<const graph::LabeledGraph> MutationApplier::current_graph()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return cur_graph_;
}

std::shared_ptr<const core::AuthorityIndex>
MutationApplier::current_authority() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cur_authority_;
}

}  // namespace mbr::service
