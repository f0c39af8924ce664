// google-benchmark micro benchmarks for the core primitives: graph
// construction, authority indexing, score exploration (exact and pruned),
// TwitterRank power iteration, landmark index build and approximate
// queries, Wu-Palmer similarity lookups.
//
// Extras beyond plain google-benchmark:
//   --smoke                runs the hot-path probes on a small graph and
//                          FAILS (exit 1) if a warm query heap-allocates —
//                          the zero-allocation CI gate (tools/check.sh).
//   --hotpath_json=PATH    measures the zero-allocation hot paths (exact
//                          exploration, all-topic exploration + landmark
//                          approximation) and
//                          writes ns/query (median, min and max over
//                          kPassSets timed pass sets), allocations/query
//                          and frontier widths as JSON (checked in as
//                          BENCH_hotpath.json), then exits.
// Heap traffic is observed by replacing global operator new/delete with
// counting forwarders — only in this binary.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "util/timer.h"
#include "util/top_k.h"

// ---------------------------------------------------------------------------
// Allocation-counting global new/delete (bench binary only).

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned allocations (util::QueryArena's blocks) are counted too;
// the array and sized forms forward to these two.
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = std::max<std::size_t>(1, (n + a - 1) / a) * a;
  void* p = std::aligned_alloc(a, size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

#include "baselines/twitterrank.h"
#include "core/authority.h"
#include "core/recommender.h"
#include "core/scorer.h"
#include "datagen/twitter_generator.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "topics/similarity_matrix.h"
#include "distributed/partition.h"
#include "dynamic/churn.h"
#include "graph/edgelist.h"
#include "text/naive_bayes.h"
#include "util/rng.h"

namespace {

using namespace mbr;

const datagen::GeneratedDataset& Dataset(uint32_t nodes) {
  static std::map<uint32_t, datagen::GeneratedDataset>& cache =
      *new std::map<uint32_t, datagen::GeneratedDataset>();
  auto it = cache.find(nodes);
  if (it == cache.end()) {
    datagen::TwitterConfig c;
    c.num_nodes = nodes;
    it = cache.emplace(nodes, datagen::GenerateTwitter(c)).first;
  }
  return it->second;
}

void BM_GenerateTwitter(benchmark::State& state) {
  datagen::TwitterConfig c;
  c.num_nodes = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto ds = datagen::GenerateTwitter(c);
    benchmark::DoNotOptimize(ds.graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * c.num_nodes);
}
BENCHMARK(BM_GenerateTwitter)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_BuildAuthorityIndex(benchmark::State& state) {
  const auto& ds = Dataset(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    core::AuthorityIndex idx(ds.graph);
    benchmark::DoNotOptimize(idx.Authority(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * ds.graph.num_edges());
}
BENCHMARK(BM_BuildAuthorityIndex)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ExactExploreSingleTopic(benchmark::State& state) {
  const auto& ds = Dataset(static_cast<uint32_t>(state.range(0)));
  core::AuthorityIndex auth(ds.graph);
  core::ScoreParams params;
  core::Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
  util::Rng rng(1);
  for (auto _ : state) {
    graph::NodeId u =
        static_cast<graph::NodeId>(rng.UniformU64(ds.graph.num_nodes()));
    auto res = scorer.Explore(u, topics::TopicSet::Single(0));
    benchmark::DoNotOptimize(res.reached().size());
  }
}
BENCHMARK(BM_ExactExploreSingleTopic)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ExactExploreAllTopics(benchmark::State& state) {
  const auto& ds = Dataset(static_cast<uint32_t>(state.range(0)));
  core::AuthorityIndex auth(ds.graph);
  core::ScoreParams params;
  core::Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params);
  topics::TopicSet all;
  for (int t = 0; t < ds.graph.num_topics(); ++t) {
    all.Add(static_cast<topics::TopicId>(t));
  }
  util::Rng rng(1);
  for (auto _ : state) {
    graph::NodeId u =
        static_cast<graph::NodeId>(rng.UniformU64(ds.graph.num_nodes()));
    auto res = scorer.Explore(u, all);
    benchmark::DoNotOptimize(res.reached().size());
  }
}
BENCHMARK(BM_ExactExploreAllTopics)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ApproxQuery(benchmark::State& state) {
  const auto& ds = Dataset(8000);
  core::AuthorityIndex auth(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = static_cast<uint32_t>(state.range(0));
  auto sel = SelectLandmarks(ds.graph, landmark::SelectionStrategy::kFollow,
                             scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 100;
  landmark::LandmarkIndex index(ds.graph, auth, topics::TwitterSimilarity(),
                                sel.landmarks, icfg);
  landmark::ApproxConfig acfg;
  landmark::ApproxRecommender approx(ds.graph, auth,
                                     topics::TwitterSimilarity(), index,
                                     acfg);
  util::Rng rng(1);
  for (auto _ : state) {
    graph::NodeId u =
        static_cast<graph::NodeId>(rng.UniformU64(ds.graph.num_nodes()));
    auto recs = approx.TopN(u, 0, 10);
    benchmark::DoNotOptimize(recs.size());
  }
}
BENCHMARK(BM_ApproxQuery)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_LandmarkIndexBuild(benchmark::State& state) {
  const auto& ds = Dataset(2000);
  core::AuthorityIndex auth(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = 10;
  auto sel = SelectLandmarks(ds.graph, landmark::SelectionStrategy::kRandom,
                             scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    landmark::LandmarkIndex index(ds.graph, auth,
                                  topics::TwitterSimilarity(),
                                  sel.landmarks, icfg);
    benchmark::DoNotOptimize(index.StorageBytes());
  }
}
BENCHMARK(BM_LandmarkIndexBuild)->Arg(10)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_TwitterRankBuild(benchmark::State& state) {
  const auto& ds = Dataset(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    baselines::TwitterRank twr(ds.graph);
    benchmark::DoNotOptimize(twr.Score(0, 0));
  }
}
BENCHMARK(BM_TwitterRankBuild)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_WuPalmerMatrixLookup(benchmark::State& state) {
  const auto& sim = topics::TwitterSimilarity();
  util::Rng rng(1);
  for (auto _ : state) {
    topics::TopicId a = static_cast<topics::TopicId>(rng.UniformU64(18));
    topics::TopicId b = static_cast<topics::TopicId>(rng.UniformU64(18));
    benchmark::DoNotOptimize(sim.Sim(a, b));
  }
}
BENCHMARK(BM_WuPalmerMatrixLookup);


void BM_PartitionGraph(benchmark::State& state) {
  const auto& ds = Dataset(8000);
  distributed::PartitionConfig c;
  c.num_partitions = 4;
  auto strategy = static_cast<distributed::PartitionStrategy>(state.range(0));
  for (auto _ : state) {
    auto part = PartitionGraph(ds.graph, strategy, c);
    benchmark::DoNotOptimize(part.edge_cut);
  }
}
BENCHMARK(BM_PartitionGraph)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_DeltaGraphChurnRound(benchmark::State& state) {
  const auto& ds = Dataset(8000);
  for (auto _ : state) {
    dynamic::DeltaGraph overlay(&ds.graph);
    util::Rng rng(7);
    dynamic::ChurnConfig churn;
    auto changes = ApplyChurnRound(&overlay, nullptr, churn, &rng);
    benchmark::DoNotOptimize(changes);
  }
}
BENCHMARK(BM_DeltaGraphChurnRound)->Unit(benchmark::kMillisecond);

void BM_EdgeListRoundTrip(benchmark::State& state) {
  const auto& ds = Dataset(2000);
  std::string path = "/tmp/mbr_bench_edges.txt";
  for (auto _ : state) {
    (void)graph::WriteEdgeList(ds.graph, topics::TwitterVocabulary(), path);
    auto r = graph::ReadEdgeList(path, topics::TwitterVocabulary());
    benchmark::DoNotOptimize(r.ok());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_EdgeListRoundTrip)->Unit(benchmark::kMillisecond);

void BM_NaiveBayesTrain(benchmark::State& state) {
  text::TopicLanguageModel lm = text::MakeTwitterLanguageModel(3);
  util::Rng rng(4);
  std::vector<text::LabeledDocument> docs;
  for (int t = 0; t < 18; ++t) {
    for (int d = 0; d < 20; ++d) {
      topics::TopicSet labels =
          topics::TopicSet::Single(static_cast<topics::TopicId>(t));
      std::string txt;
      for (const auto& tw : lm.GenerateUserTweets(labels, 10, &rng)) {
        txt += tw;
        txt.push_back(' ');
      }
      docs.push_back({std::move(txt), labels});
    }
  }
  for (auto _ : state) {
    text::NaiveBayesClassifier nb(18);
    nb.Train(docs);
    benchmark::DoNotOptimize(nb.trained());
  }
}
BENCHMARK(BM_NaiveBayesTrain)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Zero-allocation hot-path probes (DESIGN.md §6.6).
//
// Each probe runs a fixed cycle of query sources: one full warmup pass
// brings every reusable buffer (arena scratch, ExplorationResult vectors,
// score tables, TopK heap + output list) to its high-water mark, then the
// measured passes replay the same sources. In steady state a warm query
// must not touch the heap at all — the probes report the observed
// allocations/query so the gate is a measurement, not an assertion in the
// library.

struct HotpathResult {
  double ns_per_query = 0.0;  // median over the timed pass sets
  double ns_min = 0.0;        // fastest pass set
  double ns_max = 0.0;        // slowest pass set
  double allocs_per_query = 0.0;
  double mean_frontier = 0.0;  // nodes reached per query
  uint64_t queries = 0;        // timed queries over all pass sets
};

// Timed pass sets per probe. One set's mean moves with the shared host's
// load; the median of several, with its min and max, shows the spread.
constexpr int kPassSets = 5;

std::vector<graph::NodeId> SourceCycle(uint32_t num_nodes, int cycle,
                                       uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::NodeId> sources;
  sources.reserve(static_cast<size_t>(cycle));
  for (int i = 0; i < cycle; ++i) {
    sources.push_back(static_cast<graph::NodeId>(rng.UniformU64(num_nodes)));
  }
  return sources;
}

// Runs `run` (which returns the nodes one query reached) over `sources`
// once to bring every buffer to its high-water mark, then kPassSets timed
// sets of `passes` more passes each, under the allocation counter.
template <typename Fn>
HotpathResult TimeWarmPasses(const std::vector<graph::NodeId>& sources,
                             int passes, Fn&& run) {
  for (graph::NodeId u : sources) run(u);  // warmup pass
  const uint64_t per_set = static_cast<uint64_t>(passes) * sources.size();
  std::array<double, kPassSets> ns{};
  uint64_t frontier = 0;
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (double& set_ns : ns) {
    util::WallTimer timer;
    for (int p = 0; p < passes; ++p) {
      for (graph::NodeId u : sources) frontier += run(u);
    }
    set_ns = timer.ElapsedSeconds() * 1e9 / static_cast<double>(per_set);
  }
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  std::sort(ns.begin(), ns.end());
  HotpathResult r;
  r.queries = per_set * kPassSets;
  r.ns_per_query = ns[kPassSets / 2];
  r.ns_min = ns.front();
  r.ns_max = ns.back();
  r.allocs_per_query =
      static_cast<double>(allocs) / static_cast<double>(r.queries);
  r.mean_frontier =
      static_cast<double>(frontier) / static_cast<double>(r.queries);
  return r;
}

HotpathResult MeasureExactHotpath(const datagen::GeneratedDataset& ds,
                                  int cycle, int passes) {
  core::AuthorityIndex auth(ds.graph);
  core::ScoreParams params;
  util::QueryArena arena;
  core::Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params,
                      &arena);
  util::TopK topk(10);
  std::vector<util::ScoredId> ranked;
  std::vector<graph::NodeId> sources = SourceCycle(ds.graph.num_nodes(), cycle, 1);

  return TimeWarmPasses(sources, passes, [&](graph::NodeId u) {
    const core::ExplorationResult& res =
        scorer.Explore(u, topics::TopicSet::Single(0));
    topk.Reset(10);
    for (graph::NodeId v : res.reached()) {
      if (v == u) continue;
      double s = res.Sigma(v, 0);
      if (s > 0.0) topk.Offer(v, s);
    }
    topk.TakeInto(&ranked);
    benchmark::DoNotOptimize(ranked.data());
    return res.reached().size();
  });
}

// All-topic Explore — Algorithm 1 as landmark pre-processing and every
// repair run it (the multi-topic row step). Reads every reached node's σ
// row so the exploration cannot be elided.
HotpathResult MeasureAllTopicHotpath(const datagen::GeneratedDataset& ds,
                                     int cycle, int passes) {
  core::AuthorityIndex auth(ds.graph);
  core::ScoreParams params;
  util::QueryArena arena;
  core::Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params,
                      &arena);
  topics::TopicSet all;
  for (int t = 0; t < ds.graph.num_topics(); ++t) {
    all.Add(static_cast<topics::TopicId>(t));
  }
  std::vector<graph::NodeId> sources =
      SourceCycle(ds.graph.num_nodes(), cycle, 2);

  return TimeWarmPasses(sources, passes, [&](graph::NodeId u) {
    const core::ExplorationResult& res = scorer.Explore(u, all);
    double mass = 0.0;
    for (graph::NodeId v : res.reached()) {
      for (topics::TopicId t : all) mass += res.Sigma(v, t);
    }
    benchmark::DoNotOptimize(mass);
    return res.reached().size();
  });
}

HotpathResult MeasureApproxHotpath(const datagen::GeneratedDataset& ds,
                                   uint32_t num_landmarks, int cycle,
                                   int passes) {
  core::AuthorityIndex auth(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = num_landmarks;
  auto sel =
      SelectLandmarks(ds.graph, landmark::SelectionStrategy::kFollow, scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 100;
  landmark::LandmarkIndex index(ds.graph, auth, topics::TwitterSimilarity(),
                                sel.landmarks, icfg);
  landmark::ApproxConfig acfg;
  util::QueryArena arena;
  landmark::ApproxRecommender approx(ds.graph, auth,
                                     topics::TwitterSimilarity(), index, acfg,
                                     &arena);
  util::TopK topk(10);
  std::vector<util::ScoredId> ranked;
  std::vector<graph::NodeId> sources = SourceCycle(ds.graph.num_nodes(), cycle, 1);

  return TimeWarmPasses(sources, passes, [&](graph::NodeId u) {
    landmark::QueryStats qs;
    const landmark::ScoreTable& scores = approx.ScoresFlat(u, 0, &qs);
    topk.Reset(10);
    for (const auto& [v, s] : scores) {
      if (s > 0.0) topk.Offer(v, s);
    }
    topk.TakeInto(&ranked);
    benchmark::DoNotOptimize(ranked.data());
    return static_cast<size_t>(qs.nodes_reached);
  });
}

// Hot-path probes are also visible as plain benchmarks, so before/after
// comparisons fall out of a normal --benchmark_filter=Hotpath run.
void BM_HotpathExactQuery(benchmark::State& state) {
  const auto& ds = Dataset(static_cast<uint32_t>(state.range(0)));
  core::AuthorityIndex auth(ds.graph);
  core::ScoreParams params;
  util::QueryArena arena;
  core::Scorer scorer(ds.graph, auth, topics::TwitterSimilarity(), params,
                      &arena);
  util::TopK topk(10);
  std::vector<util::ScoredId> ranked;
  std::vector<graph::NodeId> sources = SourceCycle(ds.graph.num_nodes(), 32, 1);
  size_t i = 0;
  auto run = [&](graph::NodeId u) {
    const core::ExplorationResult& res =
        scorer.Explore(u, topics::TopicSet::Single(0));
    topk.Reset(10);
    for (graph::NodeId v : res.reached()) {
      if (v == u) continue;
      double s = res.Sigma(v, 0);
      if (s > 0.0) topk.Offer(v, s);
    }
    topk.TakeInto(&ranked);
    benchmark::DoNotOptimize(ranked.data());
  };
  for (graph::NodeId u : sources) run(u);  // warm the scratch
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    run(sources[i++ % sources.size()]);
  }
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_query"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HotpathExactQuery)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_HotpathApproxQuery(benchmark::State& state) {
  const auto& ds = Dataset(8000);
  core::AuthorityIndex auth(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = static_cast<uint32_t>(state.range(0));
  auto sel =
      SelectLandmarks(ds.graph, landmark::SelectionStrategy::kFollow, scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 100;
  landmark::LandmarkIndex index(ds.graph, auth, topics::TwitterSimilarity(),
                                sel.landmarks, icfg);
  landmark::ApproxConfig acfg;
  util::QueryArena arena;
  landmark::ApproxRecommender approx(ds.graph, auth,
                                     topics::TwitterSimilarity(), index, acfg,
                                     &arena);
  util::TopK topk(10);
  std::vector<util::ScoredId> ranked;
  std::vector<graph::NodeId> sources = SourceCycle(ds.graph.num_nodes(), 32, 1);
  size_t i = 0;
  auto run = [&](graph::NodeId u) {
    const landmark::ScoreTable& scores = approx.ScoresFlat(u, 0);
    topk.Reset(10);
    for (const auto& [v, s] : scores) {
      if (s > 0.0) topk.Offer(v, s);
    }
    topk.TakeInto(&ranked);
    benchmark::DoNotOptimize(ranked.data());
  };
  for (graph::NodeId u : sources) run(u);  // warm the scratch
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    run(sources[i++ % sources.size()]);
  }
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_query"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HotpathApproxQuery)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void PrintHotpathResult(const char* name, const HotpathResult& r) {
  std::printf("%-28s %12.0f ns/query [%.0f, %.0f]  %6.2f allocs/query  "
              "frontier %8.1f  (%llu queries)\n",
              name, r.ns_per_query, r.ns_min, r.ns_max, r.allocs_per_query,
              r.mean_frontier, static_cast<unsigned long long>(r.queries));
}

// --smoke: the CI gate. Small graph, few passes; fails if a warm query on
// any hot path allocates.
int RunSmoke() {
  datagen::TwitterConfig c;
  c.num_nodes = 1000;
  auto ds = datagen::GenerateTwitter(c);
  HotpathResult exact = MeasureExactHotpath(ds, /*cycle=*/8, /*passes=*/2);
  HotpathResult all_topic =
      MeasureAllTopicHotpath(ds, /*cycle=*/4, /*passes=*/2);
  HotpathResult approx =
      MeasureApproxHotpath(ds, /*num_landmarks=*/10, /*cycle=*/8, /*passes=*/2);
  PrintHotpathResult("exact_explore(1000)", exact);
  PrintHotpathResult("all_topic_explore(1000)", all_topic);
  PrintHotpathResult("landmark_approx(1000,10)", approx);
  int failures = 0;
  if (exact.allocs_per_query != 0.0) {
    std::fprintf(stderr,
                 "FAIL: exact hot path allocated (%.2f allocs/query)\n",
                 exact.allocs_per_query);
    ++failures;
  }
  if (all_topic.allocs_per_query != 0.0) {
    std::fprintf(stderr,
                 "FAIL: all-topic explore allocated (%.2f allocs/query)\n",
                 all_topic.allocs_per_query);
    ++failures;
  }
  if (approx.allocs_per_query != 0.0) {
    std::fprintf(stderr,
                 "FAIL: landmark hot path allocated (%.2f allocs/query)\n",
                 approx.allocs_per_query);
    ++failures;
  }
  if (failures == 0) std::printf("smoke OK: zero allocations on warm hot paths\n");
  return failures == 0 ? 0 : 1;
}

void AppendHotpathJson(std::string* out, const char* path_name,
                       const char* size_key, uint64_t size_value,
                       const HotpathResult& r, bool last) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"path\": \"%s\", \"%s\": %llu, \"ns_per_query\": %.0f, "
                "\"ns_min\": %.0f, \"ns_max\": %.0f, \"pass_sets\": %d, "
                "\"allocs_per_query\": %.4f, \"mean_frontier_nodes\": %.1f, "
                "\"queries\": %llu}%s\n",
                path_name, size_key,
                static_cast<unsigned long long>(size_value), r.ns_per_query,
                r.ns_min, r.ns_max, kPassSets, r.allocs_per_query,
                r.mean_frontier, static_cast<unsigned long long>(r.queries),
                last ? "" : ",");
  *out += buf;
}

int RunHotpathReport(const std::string& path) {
  std::string json = "{\n  \"benchmark\": \"hotpath\",\n  \"samples\": [\n";
  const uint32_t exact_sizes[] = {2000, 8000};
  for (uint32_t n : exact_sizes) {
    HotpathResult r = MeasureExactHotpath(Dataset(n), /*cycle=*/32, /*passes=*/4);
    char name[64];
    std::snprintf(name, sizeof(name), "exact_explore(%u)", n);
    PrintHotpathResult(name, r);
    AppendHotpathJson(&json, "exact_explore", "num_nodes", n, r, false);
  }
  {
    HotpathResult r =
        MeasureAllTopicHotpath(Dataset(8000), /*cycle=*/16, /*passes=*/2);
    PrintHotpathResult("all_topic_explore(8000)", r);
    AppendHotpathJson(&json, "all_topic_explore", "num_nodes", 8000, r, false);
  }
  const uint32_t landmark_counts[] = {20, 100};
  for (size_t i = 0; i < 2; ++i) {
    uint32_t lm = landmark_counts[i];
    HotpathResult r =
        MeasureApproxHotpath(Dataset(8000), lm, /*cycle=*/64, /*passes=*/16);
    char name[64];
    std::snprintf(name, sizeof(name), "landmark_approx(8000,%u)", lm);
    PrintHotpathResult(name, r);
    AppendHotpathJson(&json, "landmark_approx", "num_landmarks", lm, r,
                      i + 1 == 2);
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    if (std::strncmp(argv[i], "--hotpath_json=", 15) == 0) {
      return RunHotpathReport(std::string(argv[i] + 15));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
