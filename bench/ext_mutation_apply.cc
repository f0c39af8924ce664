// EXTENSION (ISSUE 10): mutation apply latency — O(Δ) incremental
// pipeline vs full per-batch rebuild.
//
// The MutationApplier turns each applied FOLLOW/UNFOLLOW/RELABEL batch
// into a new serving generation on its one pipeline: it patches only the
// touched adjacency rows (DeltaGraph::MaterializeFrom) and snapshots the
// authority from incremental counters — O(Δ). The full_rebuild rows are
// this bench's own from-scratch reference: the same per-record rules on a
// plain DeltaGraph, then a whole-graph Materialize() and an authority
// rescan per batch — O(graph) regardless of batch size — published into
// the engine the same way. This bench streams identical mutation traces
// through both at several batch sizes and reports the apply latency, i.e.
// the mutation-to-visibility cost the serving path pays while queries
// keep draining.
//
// Output: a human-readable table on stdout plus BENCH_mutation.json
// (machine-readable latencies + per-batch-size speedups, same convention
// as BENCH_churn_drift.json) in the working directory. `--smoke` shrinks
// the graph and round counts for CI.

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/authority.h"
#include "dynamic/delta_graph.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace mbr;

// Follow-heavy mix so small batches almost always apply something (an
// unfollow/relabel of a random absent edge is rejected by design).
service::Mutation RandomMutation(util::Rng* rng, uint32_t n, int num_topics) {
  service::Mutation m;
  const uint64_t roll = rng->UniformU64(100);
  m.op = roll < 70   ? service::MutationOp::kFollow
         : roll < 90 ? service::MutationOp::kUnfollow
                     : service::MutationOp::kRelabel;
  m.src = static_cast<graph::NodeId>(rng->UniformU64(n));
  m.dst = static_cast<graph::NodeId>(rng->UniformU64(n));
  const uint64_t vocab_mask = (uint64_t{1} << num_topics) - 1;
  m.labels = topics::TopicSet(1 + rng->UniformU64(vocab_mask));
  return m;
}

// The applier's per-record rules, replayed on a plain DeltaGraph by the
// from-scratch reference: whether `m` applied.
bool ApplyToDelta(dynamic::DeltaGraph* delta, const service::Mutation& m,
                  int num_topics) {
  const graph::NodeId n = delta->num_nodes();
  if (m.src >= n || m.dst >= n || m.src == m.dst) return false;
  const bool valid_labels =
      !m.labels.empty() &&
      (num_topics >= 64 || (m.labels.bits() >> num_topics) == 0);
  switch (m.op) {
    case service::MutationOp::kFollow:
      return valid_labels && delta->AddEdge(m.src, m.dst, m.labels);
    case service::MutationOp::kUnfollow:
      return delta->RemoveEdge(m.src, m.dst);
    case service::MutationOp::kRelabel:
      return valid_labels && delta->RelabelEdge(m.src, m.dst, m.labels);
  }
  return false;
}

struct ApplySample {
  const char* pipeline = "";
  size_t batch_len = 0;
  uint32_t rounds = 0;
  double mean_apply_ms = 0.0;
  double max_apply_ms = 0.0;
  double mutations_per_s = 0.0;
};

// Streams `rounds` applied batches of `batch_len` random mutations through
// a fresh applier (`incremental`) or the from-scratch reference, timing
// each batch. The trace is regenerated from `seed`, so both see
// byte-identical input.
ApplySample RunConfig(const datagen::GeneratedDataset& ds,
                      const core::AuthorityIndex& auth, bool incremental,
                      size_t batch_len, uint32_t rounds, uint64_t seed) {
  const uint32_t n = ds.graph.num_nodes();
  const int num_topics = ds.graph.num_topics();

  service::EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 0;
  service::QueryEngine engine(ds.graph, auth, topics::TwitterSimilarity(),
                              ec);
  std::optional<service::MutationApplier> applier;
  if (incremental) applier.emplace(ds.graph, auth, engine);
  dynamic::DeltaGraph delta(&ds.graph);
  // One batch; returns how many records applied.
  auto apply = [&](const std::vector<service::Mutation>& batch) -> uint32_t {
    if (applier.has_value()) return applier->Apply(batch).applied;
    uint32_t applied = 0;
    for (const service::Mutation& m : batch) {
      if (ApplyToDelta(&delta, m, num_topics)) ++applied;
    }
    if (applied > 0) {
      service::GenerationChange next;
      next.graph =
          std::make_shared<const graph::LabeledGraph>(delta.Materialize());
      next.authority =
          std::make_shared<const core::AuthorityIndex>(*next.graph);
      engine.Publish(std::move(next));
    }
    return applied;
  };

  util::Rng rng(seed);
  ApplySample s;
  s.pipeline = incremental ? "incremental" : "full_rebuild";
  s.batch_len = batch_len;
  double total_s = 0.0;
  uint64_t mutations_applied = 0;
  uint32_t done = 0;
  // A batch where nothing applied skips materialization on both sides;
  // retry (bounded) so every timed round rebuilds.
  for (uint32_t attempts = 0; done < rounds && attempts < rounds * 20;
       ++attempts) {
    std::vector<service::Mutation> batch;
    batch.reserve(batch_len);
    for (size_t i = 0; i < batch_len; ++i) {
      batch.push_back(RandomMutation(&rng, n, num_topics));
    }
    util::WallTimer timer;
    const uint32_t applied = apply(batch);
    const double elapsed = timer.ElapsedSeconds();
    if (applied == 0) continue;
    total_s += elapsed;
    s.max_apply_ms = std::max(s.max_apply_ms, elapsed * 1e3);
    mutations_applied += applied;
    ++done;
  }
  s.rounds = done;
  if (done > 0) {
    s.mean_apply_ms = total_s / done * 1e3;
    s.mutations_per_s =
        total_s > 0 ? static_cast<double>(mutations_applied) / total_s : 0.0;
  }
  return s;
}

void WriteJson(const std::vector<ApplySample>& samples, uint32_t num_nodes,
               uint64_t num_edges) {
  FILE* f = std::fopen("BENCH_mutation.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_mutation.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ext_mutation_apply\",\n");
  std::fprintf(f, "  \"num_nodes\": %u,\n  \"num_edges\": %llu,\n", num_nodes,
               static_cast<unsigned long long>(num_edges));
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const ApplySample& s = samples[i];
    std::fprintf(f,
                 "    {\"pipeline\": \"%s\", \"batch\": %zu, \"rounds\": %u, "
                 "\"mean_apply_ms\": %.6f, \"max_apply_ms\": %.6f, "
                 "\"mutations_per_s\": %.1f}%s\n",
                 s.pipeline, s.batch_len, s.rounds, s.mean_apply_ms,
                 s.max_apply_ms, s.mutations_per_s,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedups\": [\n");
  // Pair up the pipelines per batch size: full_rebuild mean over
  // incremental mean (the headline O(graph)/O(Δ) ratio).
  bool first = true;
  for (const ApplySample& full : samples) {
    if (std::strcmp(full.pipeline, "full_rebuild") != 0) continue;
    for (const ApplySample& inc : samples) {
      if (std::strcmp(inc.pipeline, "incremental") != 0 ||
          inc.batch_len != full.batch_len || inc.mean_apply_ms <= 0.0) {
        continue;
      }
      std::fprintf(f, "%s    {\"batch\": %zu, \"speedup\": %.2f}",
                   first ? "" : ",\n", full.batch_len,
                   full.mean_apply_ms / inc.mean_apply_ms);
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_mutation.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::PrintHeader(
      "ext_mutation_apply: O(Δ) incremental pipeline vs full rebuild",
      "EXTENSION of §6 (graph dynamicity): mutation-to-visibility latency");

  datagen::TwitterConfig cfg = bench::BenchTwitterConfig(smoke ? 800 : 20000);
  auto ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);
  std::printf("dataset: %u nodes, %llu edges\n", ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()));

  const std::vector<size_t> batch_lens = {1, 16, 256, 4096};
  const uint64_t seed = bench::EnvSeed(1013);

  std::printf("%-13s %-7s %-7s %-15s %-14s %s\n", "pipeline", "batch",
              "rounds", "mean_apply_ms", "max_apply_ms", "mutations/s");
  std::vector<ApplySample> samples;
  for (bool incremental : {false, true}) {
    for (size_t batch_len : batch_lens) {
      uint32_t rounds =
          batch_len <= 16 ? 24 : batch_len <= 256 ? 8 : 3;
      if (smoke) rounds = batch_len <= 16 ? 4 : 2;
      ApplySample s =
          RunConfig(ds, auth, incremental, batch_len, rounds, seed);
      samples.push_back(s);
      std::printf("%-13s %-7zu %-7u %-15.4f %-14.4f %.1f\n", s.pipeline,
                  s.batch_len, s.rounds, s.mean_apply_ms, s.max_apply_ms,
                  s.mutations_per_s);
    }
  }

  std::printf(
      "\nexpected shape: full_rebuild pays the same O(graph) materialize + "
      "authority rescan per batch regardless of size, so small batches are "
      "pathological; incremental patches only the touched rows and repairs "
      "only dirty per-topic maxima, so batch<=16 applies should land >=5x "
      "faster on the large config while batch=4096 converges (Δ approaches "
      "the graph)\n");

  WriteJson(samples, ds.graph.num_nodes(), ds.graph.num_edges());
  return 0;
}
