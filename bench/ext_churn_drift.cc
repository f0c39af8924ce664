// EXTENSION (ISSUE 6 / paper §6): landmark drift under LIVE churn with
// lazy repair.
//
// ext_dynamic_updates measures how a frozen landmark index rots under
// offline churn. This bench measures the *serving-side* story introduced
// by the mutation path: FOLLOW/UNFOLLOW/RELABEL batches stream through a
// service::MutationApplier (each applied batch publishes a new serving
// generation and bumps the graph epoch), every applied batch marks every
// landmark slot stale for the service::LandmarkRepairer, and we track — per
// cumulative-churn checkpoint — recall@10 and Kendall-tau of the live
// approx answers against an index freshly rebuilt on the current graph,
// alongside the repairer's stale telemetry. After the trace, Quiesce()
// drains the stale set and the post-quiesce row compares the repaired
// index with the fresh build.
//
// Output: a human-readable table on stdout plus BENCH_churn_drift.json
// (machine-readable drift curve) in the working directory. Exits 1 unless
// every checkpoint reports every slot stale and the quiesced index
// serializes byte-identically to the fresh build (`tools/check.sh
// bench-smoke` runs it as that gate).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "coord/serving_node.h"
#include "core/authority.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/kendall.h"
#include "util/rng.h"

namespace {

using namespace mbr;

struct Probe {
  graph::NodeId user;
  topics::TopicId topic;
};

struct DriftSample {
  uint64_t mutations_sent = 0;
  uint64_t applied_total = 0;
  double recall_at10 = 0.0;
  double kendall_tau = 0.0;
  size_t stale_slots = 0;
  uint64_t stale_reads = 0;
  uint64_t graph_epoch = 0;
};

core::ScoreParams DriftParams() {
  core::ScoreParams p;
  p.beta = 0.1;
  return p;
}

service::Mutation RandomMutation(util::Rng* rng, uint32_t n, int num_topics) {
  service::Mutation m;
  const uint64_t roll = rng->UniformU64(100);
  m.op = roll < 45   ? service::MutationOp::kFollow
         : roll < 80 ? service::MutationOp::kUnfollow
                     : service::MutationOp::kRelabel;
  m.src = static_cast<graph::NodeId>(rng->UniformU64(n));
  m.dst = static_cast<graph::NodeId>(rng->UniformU64(n));
  const uint64_t vocab_mask = (uint64_t{1} << num_topics) - 1;
  m.labels = topics::TopicSet(1 + rng->UniformU64(vocab_mask));
  return m;
}

// Mean recall@10 / Kendall-tau of the live engine vs a reference engine
// over the probe panel.
void MeasureDrift(service::QueryEngine& live, service::QueryEngine& ref,
                  const std::vector<Probe>& probes, double* recall,
                  double* tau) {
  double recall_sum = 0.0, tau_sum = 0.0;
  int scored = 0;
  for (const Probe& p : probes) {
    auto live_list = live.TopN(p.user, p.topic, 10).value();
    auto ref_list = ref.TopN(p.user, p.topic, 10).value();
    if (live_list.empty() && ref_list.empty()) continue;
    std::vector<uint32_t> live_ids, ref_ids;
    for (const auto& e : live_list) live_ids.push_back(e.id);
    for (const auto& e : ref_list) ref_ids.push_back(e.id);
    size_t hits = 0;
    for (uint32_t id : live_ids) {
      for (uint32_t rid : ref_ids) {
        if (id == rid) {
          ++hits;
          break;
        }
      }
    }
    const size_t denom = ref_ids.empty() ? 1 : ref_ids.size();
    recall_sum += static_cast<double>(hits) / static_cast<double>(denom);
    tau_sum += util::KendallTauTopK(live_ids, ref_ids);
    ++scored;
  }
  *recall = scored == 0 ? 1.0 : recall_sum / scored;
  *tau = scored == 0 ? 0.0 : tau_sum / scored;
}

void WriteJson(const std::vector<DriftSample>& curve,
               const DriftSample& post_quiesce, uint32_t num_nodes,
               uint32_t num_landmarks, uint64_t repairs_done) {
  FILE* f = std::fopen("BENCH_churn_drift.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_churn_drift.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ext_churn_drift\",\n");
  std::fprintf(f, "  \"num_nodes\": %u,\n  \"num_landmarks\": %u,\n",
               num_nodes, num_landmarks);
  std::fprintf(f, "  \"checkpoints\": [\n");
  for (size_t i = 0; i < curve.size(); ++i) {
    const DriftSample& s = curve[i];
    std::fprintf(f,
                 "    {\"mutations\": %llu, \"applied\": %llu, "
                 "\"recall_at10\": %.6f, \"kendall_tau\": %.6f, "
                 "\"stale_slots\": %zu, \"stale_reads\": %llu, "
                 "\"graph_epoch\": %llu}%s\n",
                 static_cast<unsigned long long>(s.mutations_sent),
                 static_cast<unsigned long long>(s.applied_total),
                 s.recall_at10, s.kendall_tau, s.stale_slots,
                 static_cast<unsigned long long>(s.stale_reads),
                 static_cast<unsigned long long>(s.graph_epoch),
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"post_quiesce\": {\"recall_at10\": %.6f, "
               "\"kendall_tau\": %.6f, \"repairs_done\": %llu}\n}\n",
               post_quiesce.recall_at10, post_quiesce.kendall_tau,
               static_cast<unsigned long long>(repairs_done));
  std::fclose(f);
  std::printf("\nwrote BENCH_churn_drift.json\n");
}

}  // namespace

int main() {
  bench::PrintHeader(
      "ext_churn_drift: live-mutation landmark drift + lazy repair",
      "EXTENSION of §6 (graph dynamicity) over the PR-6 mutation path");

  datagen::TwitterConfig cfg = bench::BenchTwitterConfig(2000);
  auto ds = datagen::GenerateTwitter(cfg);
  const uint32_t n = ds.graph.num_nodes();
  const int num_topics = ds.graph.num_topics();
  core::AuthorityIndex auth(ds.graph);

  landmark::SelectionConfig sel;
  sel.num_landmarks = 24;
  auto landmarks =
      landmark::SelectLandmarks(ds.graph, landmark::SelectionStrategy::kOutDeg,
                                sel)
          .landmarks;
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 50;
  icfg.params = DriftParams();
  coord::NodeConfig nc;
  nc.index.emplace(ds.graph, auth, topics::TwitterSimilarity(), landmarks,
                   icfg);
  nc.graph = std::move(ds.graph);

  service::EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 0;
  ec.params = DriftParams();
  nc.engine = ec;
  nc.mutable_serving = true;
  auto node = coord::ServingNode::Build(std::move(nc)).value();
  service::QueryEngine& engine = node->engine();
  service::MutationApplier& applier = *node->applier();
  service::LandmarkRepairer& repairer = *node->repairer();
  obs::Counter* stale_reads = engine.registry().GetCounter(
      "mbr_repair_stale_reads_total", "");

  util::Rng rng(bench::EnvSeed(42));
  util::Rng probe_rng = rng.Fork(9);
  std::vector<Probe> probes;
  for (int i = 0; i < 25; ++i) {
    probes.push_back(
        {static_cast<graph::NodeId>(probe_rng.UniformU64(n)),
         static_cast<topics::TopicId>(
             probe_rng.UniformU64(static_cast<uint64_t>(num_topics)))});
  }

  const int kCheckpoints = 10;
  const int kBatchesPerCheckpoint = 10;
  const size_t kBatchLen = 50;  // 10 * 10 * 50 = 5000 mutations
  uint64_t sent = 0;

  std::printf("%-10s %-9s %-10s %-12s %-11s %-11s %s\n", "mutations",
              "applied", "epoch", "recall@10", "kendall", "stale_slots",
              "stale_reads");
  std::vector<DriftSample> curve;
  bool all_stale = true;
  for (int c = 0; c < kCheckpoints; ++c) {
    for (int b = 0; b < kBatchesPerCheckpoint; ++b) {
      std::vector<service::Mutation> batch;
      batch.reserve(kBatchLen);
      for (size_t i = 0; i < kBatchLen; ++i) {
        batch.push_back(RandomMutation(&rng, n, num_topics));
      }
      sent += batch.size();
      applier.Apply(batch);
    }

    // Reference: an index freshly rebuilt on the live generation (what a
    // full offline recompute would serve right now).
    auto g = applier.current_graph();
    auto a = applier.current_authority();
    landmark::LandmarkIndex fresh(*g, *a, topics::TwitterSimilarity(),
                                  landmarks, icfg);
    service::EngineConfig ref_ec = ec;
    ref_ec.landmarks = &fresh;
    service::QueryEngine reference(*g, *a, topics::TwitterSimilarity(),
                                   ref_ec);

    DriftSample s;
    s.mutations_sent = sent;
    s.applied_total = applier.batches_applied();
    s.graph_epoch = engine.params_epoch();
    s.stale_slots = repairer.stale_count();
    all_stale = all_stale && s.stale_slots == sel.num_landmarks;
    MeasureDrift(engine, reference, probes, &s.recall_at10, &s.kendall_tau);
    s.stale_reads = stale_reads->Value();
    curve.push_back(s);
    std::printf("%-10llu %-9llu %-10llu %-12.4f %-11.4f %-11zu %llu\n",
                static_cast<unsigned long long>(s.mutations_sent),
                static_cast<unsigned long long>(s.applied_total),
                static_cast<unsigned long long>(s.graph_epoch), s.recall_at10,
                s.kendall_tau, s.stale_slots,
                static_cast<unsigned long long>(s.stale_reads));
  }

  // Drain every stale slot, then measure how close lazy repair gets to a
  // fresh rebuild once it has caught up: ComputeLists is deterministic, so
  // the quiesced index must serialize to the fresh build's bytes.
  repairer.Quiesce();
  auto g = applier.current_graph();
  auto a = applier.current_authority();
  landmark::LandmarkIndex fresh(*g, *a, topics::TwitterSimilarity(),
                                landmarks, icfg);
  service::EngineConfig ref_ec = ec;
  ref_ec.landmarks = &fresh;
  service::QueryEngine reference(*g, *a, topics::TwitterSimilarity(),
                                 ref_ec);
  DriftSample post;
  MeasureDrift(engine, reference, probes, &post.recall_at10,
               &post.kendall_tau);
  std::printf("post-quiesce          recall@10=%.4f kendall=%.4f "
              "(repairs_done=%llu)\n",
              post.recall_at10, post.kendall_tau,
              static_cast<unsigned long long>(repairer.repairs_done()));

  WriteJson(curve, post, n, sel.num_landmarks, repairer.repairs_done());

  const bool converged = node->index()->Serialize() == fresh.Serialize();
  std::printf("every checkpoint all %u slots stale: %s\n"
              "quiesced index byte-identical to fresh build: %s\n",
              sel.num_landmarks, all_stale ? "yes" : "NO",
              converged ? "yes" : "NO");
  return all_stale && converged ? 0 : 1;
}
