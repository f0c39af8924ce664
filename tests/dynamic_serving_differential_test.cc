// The ISSUE-6 headline oracle: replay a seeded churn trace of wire
// FOLLOW/UNFOLLOW/RELABEL batches against a LIVE mutable server, and at
// every checkpoint compare its exact-path answers, byte for byte, with a
// reference engine freshly rebuilt from a shadow DeltaGraph that replayed
// the same trace in-process. "Byte for byte" is literal: both ranked
// lists are re-encoded with the RESULT codec at a fixed epoch (0) and the
// encodings must be identical — ids, order, and raw score bits.
//
// The shadow also mirrors the applier's per-record validation, so every
// MUTATE_ACK's applied/rejected counts and graph_epoch are cross-checked
// against the model on every batch, not just at checkpoints.
//
// A second suite drives the landmark approximation under churn with the
// lazy repairer, which marks every landmark slot stale on every applied
// batch: after Quiesce() — inline or on the background thread — the
// stored lists must be bit-identical to a from-scratch index build
// (LandmarkIndex::ComputeLists is deterministic), and so must the approx
// answers.
// bench/ext_churn_drift.cc measures the drift before the repairs land as
// a curve.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/serving_node.h"
#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "dynamic/delta_graph.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "net/server.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"

namespace mbr::service {
namespace {

using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicId;
using topics::TopicSet;

// ---------- shared trace machinery ----------

struct TraceOp {
  MutationOp op;
  uint32_t src;
  uint32_t dst;
  uint64_t labels;
};

// A seeded churn batch biased toward applicable ops, with a sprinkle of
// invalid records (out-of-range ids, self-loops via collisions, empty and
// out-of-vocabulary label sets) so the rejection path is continuously
// exercised.
std::vector<TraceOp> MakeBatch(util::Rng* rng, uint32_t num_nodes,
                               int num_topics, size_t len) {
  std::vector<TraceOp> ops;
  ops.reserve(len);
  const uint64_t vocab_mask = (uint64_t{1} << num_topics) - 1;
  for (size_t i = 0; i < len; ++i) {
    TraceOp op;
    const uint64_t roll = rng->UniformU64(100);
    op.op = roll < 45   ? MutationOp::kFollow
            : roll < 80 ? MutationOp::kUnfollow
                        : MutationOp::kRelabel;
    op.src = static_cast<uint32_t>(rng->UniformU64(num_nodes));
    op.dst = static_cast<uint32_t>(rng->UniformU64(num_nodes));
    op.labels = 1 + rng->UniformU64(vocab_mask);
    if (rng->Bernoulli(0.04)) op.dst = num_nodes + 17;  // out of range
    if (rng->Bernoulli(0.03)) op.labels = 0;            // empty labels
    if (rng->Bernoulli(0.03)) op.labels = vocab_mask + 1;  // out of vocab
    ops.push_back(op);
  }
  return ops;
}

// The shadow model: replays ops against its own DeltaGraph with the exact
// validation rules of service::MutationApplier::ApplyOne.
class ShadowReplica {
 public:
  explicit ShadowReplica(const LabeledGraph* base)
      : delta_(base), num_topics_(base->num_topics()) {}

  // Returns applied count; *rejected gets the rest.
  uint32_t Apply(const std::vector<TraceOp>& batch, uint32_t* rejected) {
    uint32_t applied = 0;
    for (const TraceOp& op : batch) {
      if (ApplyOne(op)) ++applied;
    }
    *rejected = static_cast<uint32_t>(batch.size()) - applied;
    if (applied > 0) ++epoch_;
    return applied;
  }

  uint64_t epoch() const { return epoch_; }
  LabeledGraph Materialize() const { return delta_.Materialize(); }

 private:
  bool ApplyOne(const TraceOp& op) {
    const NodeId n = delta_.num_nodes();
    if (op.src >= n || op.dst >= n || op.src == op.dst) return false;
    TopicSet labels(op.labels);
    const bool valid_labels =
        !labels.empty() &&
        (num_topics_ >= 64 || (op.labels >> num_topics_) == 0);
    switch (op.op) {
      case MutationOp::kFollow:
        return valid_labels && delta_.AddEdge(op.src, op.dst, labels);
      case MutationOp::kUnfollow:
        return delta_.RemoveEdge(op.src, op.dst);
      case MutationOp::kRelabel:
        return valid_labels && delta_.RelabelEdge(op.src, op.dst, labels);
    }
    return false;
  }

  dynamic::DeltaGraph delta_;
  int num_topics_;
  uint64_t epoch_ = 0;
};

core::ScoreParams OracleParams() {
  core::ScoreParams p;
  p.beta = 0.1;
  return p;
}

// Canonical byte encoding of a ranked list: the RESULT codec with the
// epoch left at 0, so two replies computed at different epochs but over
// the same graph still compare equal.
std::vector<uint8_t> CanonicalBytes(const net::RankedList& list) {
  return net::EncodeResult(list);
}

// ---------- exact-path wire oracle ----------

class DynamicServingDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::TwitterConfig cfg;
    cfg.num_nodes = 150;
    coord::NodeConfig nc;
    nc.graph = datagen::GenerateTwitter(cfg).graph;
    nc.engine.num_threads = 2;
    nc.engine.cache_capacity = 512;
    nc.engine.params = OracleParams();
    nc.mutable_serving = true;
    auto node = coord::ServingNode::Build(std::move(nc));
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = std::move(*node);
    ASSERT_TRUE(node_->Start().ok());
    base_ = &node_->graph();
    engine_ = &node_->engine();
    applier_ = node_->applier();
  }

  util::Result<net::Client> Dial() {
    net::ClientConfig cc;
    cc.port = node_->server().port();
    return net::Client::Connect(cc);
  }

  std::unique_ptr<coord::ServingNode> node_;
  const LabeledGraph* base_ = nullptr;
  QueryEngine* engine_ = nullptr;
  MutationApplier* applier_ = nullptr;
};

TEST_F(DynamicServingDifferentialTest,
       FiveThousandMutationTraceMatchesFreshRebuildAtEveryCheckpoint) {
  constexpr int kBatches = 250;
  constexpr size_t kBatchLen = 24;  // 250 * 24 = 6000 mutations >= 5k
  constexpr int kCheckpointEvery = 25;
  constexpr int kProbesPerCheckpoint = 20;
  constexpr uint32_t kTopN = 10;

  auto client = Dial();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ShadowReplica shadow(base_);
  util::Rng trace_rng(20260808);
  util::Rng probe_rng = trace_rng.Fork(1);
  const uint32_t n = base_->num_nodes();
  const int num_topics = base_->num_topics();

  uint64_t total_sent = 0;
  int checkpoints_run = 0;
  for (int b = 1; b <= kBatches; ++b) {
    std::vector<TraceOp> batch =
        MakeBatch(&trace_rng, n, num_topics, kBatchLen);
    total_sent += batch.size();

    // Ship the batch over the wire, grouped by op kind (one frame per
    // kind, order preserved within the batch by splitting on kind runs).
    uint32_t wire_applied = 0, wire_rejected = 0;
    size_t i = 0;
    while (i < batch.size()) {
      const MutationOp kind = batch[i].op;
      std::vector<net::MutationRecord> records;
      size_t j = i;
      for (; j < batch.size() && batch[j].op == kind; ++j) {
        records.push_back({batch[j].src, batch[j].dst, batch[j].labels});
      }
      const net::MessageKind wire_kind =
          kind == MutationOp::kFollow     ? net::MessageKind::kFollow
          : kind == MutationOp::kUnfollow ? net::MessageKind::kUnfollow
                                          : net::MessageKind::kRelabel;
      auto ack = client->Mutate(wire_kind, records);
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      wire_applied += ack->applied;
      wire_rejected += ack->rejected;
      i = j;

      // The shadow replays the same run and must agree record-for-record.
      std::vector<TraceOp> run(batch.begin() + static_cast<ptrdiff_t>(i) -
                                   static_cast<ptrdiff_t>(records.size()),
                               batch.begin() + static_cast<ptrdiff_t>(i));
      uint32_t shadow_rejected = 0;
      uint32_t shadow_applied = shadow.Apply(run, &shadow_rejected);
      ASSERT_EQ(ack->applied, shadow_applied)
          << "batch " << b << ": server and model disagree on applied count";
      ASSERT_EQ(ack->rejected, shadow_rejected);
      ASSERT_EQ(ack->graph_epoch, shadow.epoch())
          << "batch " << b << ": epoch diverged from applied-batch count";
    }
    ASSERT_EQ(wire_applied + wire_rejected, batch.size());

    if (b % kCheckpointEvery != 0) continue;
    ++checkpoints_run;

    // Fresh rebuild from the shadow's materialized graph: the oracle the
    // live-mutated server must match byte-for-byte.
    LabeledGraph fresh = shadow.Materialize();
    core::AuthorityIndex fresh_auth(fresh);
    EngineConfig ref_ec;
    ref_ec.num_threads = 1;
    ref_ec.cache_capacity = 0;
    ref_ec.params = OracleParams();
    QueryEngine reference(fresh, fresh_auth, topics::TwitterSimilarity(),
                          ref_ec);

    for (int p = 0; p < kProbesPerCheckpoint; ++p) {
      const uint32_t user = static_cast<uint32_t>(probe_rng.UniformU64(n));
      const TopicId topic = static_cast<TopicId>(
          probe_rng.UniformU64(static_cast<uint64_t>(num_topics)));
      auto remote = client->RecommendEx({user, topic, kTopN});
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_EQ(remote->graph_epoch, shadow.epoch());
      net::RankedList expect = reference.TopN(user, topic, kTopN).value();
      ASSERT_EQ(CanonicalBytes(remote->entries), CanonicalBytes(expect))
          << "checkpoint " << checkpoints_run << " (after " << total_sent
          << " mutations), probe user=" << user
          << " topic=" << static_cast<int>(topic)
          << ": live-mutated server diverged from fresh rebuild";
    }
  }

  EXPECT_GE(total_sent, 5000u);
  EXPECT_EQ(checkpoints_run, kBatches / kCheckpointEvery);
  // The trace genuinely mutated the replica many times over.
  EXPECT_GT(applier_->batches_applied(), 100u);
  EXPECT_EQ(engine_->params_epoch(), shadow.epoch());
}

// ---------- the O(Δ) pipeline against a full rebuild ----------

// The full-rebuild reference of MutationPipelineParityTest: the shadow
// model's validation, then a from-scratch Materialize() plus a full
// AuthorityIndex rescan per applied batch, published into its own engine.
class FullRebuildReplica {
 public:
  FullRebuildReplica(const LabeledGraph* base, QueryEngine* engine)
      : shadow_(base), engine_(engine) {}

  MutationOutcome Apply(const std::vector<Mutation>& batch) {
    std::vector<TraceOp> ops;
    for (const Mutation& m : batch) {
      ops.push_back({m.op, m.src, m.dst, m.labels.bits()});
    }
    MutationOutcome out;
    out.applied = shadow_.Apply(ops, &out.rejected);
    if (out.applied > 0) {
      GenerationChange next;
      next.graph = std::make_shared<const LabeledGraph>(shadow_.Materialize());
      next.authority =
          std::make_shared<const core::AuthorityIndex>(*next.graph);
      engine_->Publish(std::move(next));
    }
    out.graph_epoch = engine_->params_epoch();
    return out;
  }
  uint64_t batches_applied() const { return shadow_.epoch(); }

 private:
  ShadowReplica shadow_;
  QueryEngine* engine_;
};

// Two replicas replay the same trace — the from-scratch rebuild above and
// a MutationApplier on the O(Δ) incremental pipeline — and their engines
// must serve byte-identical rankings at every checkpoint: the incremental
// pipeline is an optimization, never a semantics change. (The wire oracle
// above already runs the applier against a from-scratch shadow over the
// wire; this test pins the two in-binary pipelines directly against each
// other.)
TEST(MutationPipelineParityTest, IncrementalAndFullRebuildServeSameBytes) {
  datagen::TwitterConfig cfg;
  cfg.num_nodes = 150;
  auto ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);

  EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 0;
  ec.params = OracleParams();
  QueryEngine full_engine(ds.graph, auth, topics::TwitterSimilarity(), ec);
  QueryEngine inc_engine(ds.graph, auth, topics::TwitterSimilarity(), ec);

  FullRebuildReplica full(&ds.graph, &full_engine);
  MutationApplier inc(ds.graph, auth, inc_engine);

  util::Rng rng(31337);
  util::Rng probe_rng = rng.Fork(2);
  const uint32_t n = ds.graph.num_nodes();
  const int num_topics = ds.graph.num_topics();
  for (int b = 1; b <= 60; ++b) {
    std::vector<TraceOp> ops = MakeBatch(&rng, n, num_topics, 25);
    std::vector<Mutation> batch;
    for (const TraceOp& op : ops) {
      batch.push_back({op.op, op.src, op.dst, TopicSet(op.labels)});
    }
    MutationOutcome fo = full.Apply(batch);
    MutationOutcome io = inc.Apply(batch);
    ASSERT_EQ(fo.applied, io.applied) << "batch " << b;
    ASSERT_EQ(fo.rejected, io.rejected) << "batch " << b;
    // Default refresh period 1: dirty maxima repaired every batch, so the
    // incremental authority never drifts.
    ASSERT_EQ(inc.authority_drift_topics(), 0) << "batch " << b;

    if (b % 10 != 0) continue;
    for (int p = 0; p < 12; ++p) {
      const uint32_t user = static_cast<uint32_t>(probe_rng.UniformU64(n));
      const TopicId topic = static_cast<TopicId>(
          probe_rng.UniformU64(static_cast<uint64_t>(num_topics)));
      net::RankedList want = full_engine.TopN(user, topic, 10).value();
      net::RankedList got = inc_engine.TopN(user, topic, 10).value();
      ASSERT_EQ(CanonicalBytes(got), CanonicalBytes(want))
          << "batch " << b << " user " << user << " topic "
          << static_cast<int>(topic)
          << ": incremental pipeline diverged from full rebuild";
    }
  }
  EXPECT_GT(full.batches_applied(), 0u);
  EXPECT_EQ(full.batches_applied(), inc.batches_applied());
}

// The --authority-refresh knob: a deferred period leaves dirty topics
// observable between refreshes (the paper's periodic mode), while the
// default period repairs them every batch.
TEST(MutationPipelineParityTest, DeferredRefreshExposesDriftTopics) {
  datagen::TwitterConfig cfg;
  cfg.num_nodes = 150;
  auto ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);

  EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 0;
  ec.params = OracleParams();
  QueryEngine engine(ds.graph, auth, topics::TwitterSimilarity(), ec);
  MutationConfig mcfg;
  mcfg.authority_refresh_batches = 1u << 20;  // effectively never refresh
  MutationApplier applier(ds.graph, auth, engine, mcfg);

  util::Rng rng(4242);
  const uint32_t n = ds.graph.num_nodes();
  const int num_topics = ds.graph.num_topics();
  int drift_seen = 0;
  for (int b = 0; b < 80 && drift_seen == 0; ++b) {
    std::vector<TraceOp> ops = MakeBatch(&rng, n, num_topics, 25);
    std::vector<Mutation> batch;
    for (const TraceOp& op : ops) {
      batch.push_back({op.op, op.src, op.dst, TopicSet(op.labels)});
    }
    applier.Apply(batch);
    drift_seen = applier.authority_drift_topics();
  }
  // A 2000-op unfollow-heavy trace must eventually remove a follower from
  // some max-holding row, leaving that topic's stored max an unverified
  // upper bound until the (deferred) refresh.
  EXPECT_GT(drift_seen, 0);
}

// ---------- landmark drift under lazy repair (in-process) ----------

class LandmarkChurnFixture {
 public:
  LandmarkChurnFixture() {
    datagen::TwitterConfig cfg;
    cfg.num_nodes = 220;
    coord::NodeConfig nc;
    nc.graph = datagen::GenerateTwitter(cfg).graph;

    landmark::SelectionConfig sel;
    sel.num_landmarks = 16;
    landmarks_ = landmark::SelectLandmarks(
                     nc.graph, landmark::SelectionStrategy::kOutDeg, sel)
                     .landmarks;
    index_cfg_.top_n = 40;
    index_cfg_.params = OracleParams();
    index_cfg_.num_threads = 1;
    nc.index.emplace(nc.graph, core::AuthorityIndex(nc.graph),
                     topics::TwitterSimilarity(), landmarks_, index_cfg_);

    nc.engine.num_threads = 1;
    nc.engine.cache_capacity = 0;
    nc.engine.params = OracleParams();
    nc.mutable_serving = true;
    node_ = coord::ServingNode::Build(std::move(nc)).value();
    base_ = &node_->graph();
    engine_ = &node_->engine();
    applier_ = node_->applier();
    repairer_ = node_->repairer();
  }

  // Applies `rounds` seeded churn batches through the applier.
  void Churn(int rounds, uint64_t seed) {
    util::Rng rng(seed);
    for (int r = 0; r < rounds; ++r) {
      std::vector<TraceOp> ops =
          MakeBatch(&rng, base_->num_nodes(), base_->num_topics(), 30);
      std::vector<Mutation> batch;
      for (const TraceOp& op : ops) {
        batch.push_back({op.op, op.src, op.dst, TopicSet(op.labels)});
      }
      applier_->Apply(batch);
    }
  }

  // The index of the live generation (each repair publishes a new one).
  std::shared_ptr<const landmark::LandmarkIndex> index() const {
    return node_->index();
  }

  // A reference index built from scratch on the current generation.
  landmark::LandmarkIndex FreshIndex() const {
    auto g = applier_->current_graph();
    auto auth = applier_->current_authority();
    return landmark::LandmarkIndex(*g, *auth, topics::TwitterSimilarity(),
                                   landmarks_, index_cfg_);
  }

  std::unique_ptr<coord::ServingNode> node_;
  const LabeledGraph* base_ = nullptr;
  std::vector<NodeId> landmarks_;
  landmark::LandmarkIndexConfig index_cfg_;
  QueryEngine* engine_ = nullptr;
  MutationApplier* applier_ = nullptr;
  LandmarkRepairer* repairer_ = nullptr;
};

TEST(LandmarkRepairDifferentialTest, AllModeQuiesceIsByteIdenticalToFresh) {
  LandmarkChurnFixture fx;
  fx.Churn(/*rounds=*/8, /*seed=*/7);
  ASSERT_GT(fx.repairer_->stale_count(), 0u);
  fx.repairer_->Quiesce();  // inline drain: no thread started
  EXPECT_EQ(fx.repairer_->stale_count(), 0u);
  EXPECT_GT(fx.repairer_->repairs_done(), 0u);

  landmark::LandmarkIndex fresh = fx.FreshIndex();
  const std::shared_ptr<const landmark::LandmarkIndex> live = fx.index();
  for (NodeId lm : fx.landmarks_) {
    for (int t = 0; t < fresh.num_topics(); ++t) {
      const auto& got = live->Recommendations(lm, static_cast<TopicId>(t));
      const auto& want = fresh.Recommendations(lm, static_cast<TopicId>(t));
      ASSERT_EQ(got.size(), want.size()) << "landmark " << lm << " topic "
                                         << t;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].node, want[i].node)
            << "landmark " << lm << " topic " << t << " rank " << i;
        // Raw double bits, not approximate equality: ComputeLists and a
        // from-scratch build must run the identical computation.
        ASSERT_EQ(got[i].sigma, want[i].sigma);
        ASSERT_EQ(got[i].topo_beta, want[i].topo_beta);
      }
    }
  }

  // And the approx serving path is byte-identical too.
  EngineConfig ref_ec;
  ref_ec.num_threads = 1;
  ref_ec.cache_capacity = 0;
  ref_ec.params = OracleParams();
  ref_ec.landmarks = &fresh;
  auto g = fx.applier_->current_graph();
  auto auth = fx.applier_->current_authority();
  QueryEngine reference(*g, *auth, topics::TwitterSimilarity(), ref_ec);
  util::Rng probe_rng(99);
  for (int p = 0; p < 15; ++p) {
    const uint32_t user =
        static_cast<uint32_t>(probe_rng.UniformU64(fx.base_->num_nodes()));
    const TopicId topic = static_cast<TopicId>(
        probe_rng.UniformU64(static_cast<uint64_t>(fx.base_->num_topics())));
    net::RankedList live = fx.engine_->TopN(user, topic, 10).value();
    net::RankedList ref = reference.TopN(user, topic, 10).value();
    ASSERT_EQ(CanonicalBytes(live), CanonicalBytes(ref))
        << "user " << user << " topic " << static_cast<int>(topic);
  }
}

// A second trace (seed 13) that quiesces to the fresh build's bytes: the
// stored lists serialize identically, and the approx answers over a probe
// panel are byte-identical to a reference engine on the fresh index.
TEST(LandmarkRepairDifferentialTest, SecondTraceQuiescesByteIdenticalToFresh) {
  LandmarkChurnFixture fx;
  fx.Churn(/*rounds=*/8, /*seed=*/13);
  ASSERT_EQ(fx.repairer_->stale_count(), fx.landmarks_.size());
  fx.repairer_->Quiesce();
  EXPECT_EQ(fx.repairer_->stale_count(), 0u);

  landmark::LandmarkIndex fresh = fx.FreshIndex();
  ASSERT_TRUE(fx.index()->Serialize() == fresh.Serialize())
      << "quiesced stored lists differ from a fresh build";
  EngineConfig ref_ec;
  ref_ec.num_threads = 1;
  ref_ec.cache_capacity = 0;
  ref_ec.params = OracleParams();
  ref_ec.landmarks = &fresh;
  auto g = fx.applier_->current_graph();
  auto auth = fx.applier_->current_authority();
  QueryEngine reference(*g, *auth, topics::TwitterSimilarity(), ref_ec);
  util::Rng probe_rng(101);
  for (int p = 0; p < 30; ++p) {
    const uint32_t user =
        static_cast<uint32_t>(probe_rng.UniformU64(fx.base_->num_nodes()));
    const TopicId topic = static_cast<TopicId>(
        probe_rng.UniformU64(static_cast<uint64_t>(fx.base_->num_topics())));
    net::RankedList live = fx.engine_->TopN(user, topic, 10).value();
    net::RankedList ref = reference.TopN(user, topic, 10).value();
    ASSERT_EQ(CanonicalBytes(live), CanonicalBytes(ref))
        << "user " << user << " topic " << static_cast<int>(topic);
  }
}

TEST(LandmarkRepairDifferentialTest, BackgroundThreadQuiesceConverges) {
  // Same convergence, but with the repair thread actually running —
  // Quiesce() waits instead of draining inline.
  LandmarkChurnFixture fx;
  fx.repairer_->Start();
  fx.Churn(/*rounds=*/5, /*seed=*/21);
  fx.repairer_->Quiesce();
  EXPECT_EQ(fx.repairer_->stale_count(), 0u);
  EXPECT_GT(fx.repairer_->repairs_done(), 0u);
  fx.repairer_->Stop();

  landmark::LandmarkIndex fresh = fx.FreshIndex();
  const std::shared_ptr<const landmark::LandmarkIndex> live = fx.index();
  for (NodeId lm : fx.landmarks_) {
    for (int t = 0; t < fresh.num_topics(); ++t) {
      const auto& got = live->Recommendations(lm, static_cast<TopicId>(t));
      const auto& want = fresh.Recommendations(lm, static_cast<TopicId>(t));
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].node, want[i].node);
        ASSERT_EQ(got[i].sigma, want[i].sigma);
      }
    }
  }
}

}  // namespace
}  // namespace mbr::service
