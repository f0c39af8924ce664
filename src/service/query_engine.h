#ifndef MBR_SERVICE_QUERY_ENGINE_H_
#define MBR_SERVICE_QUERY_ENGINE_H_

// Concurrent query-serving engine — the first piece of real serving
// infrastructure over the paper's recommenders.
//
// Architecture:
//   * a fixed util::ThreadPool; every worker owns its own core::Scorer
//     (and landmark::ApproxRecommender when a landmark index is
//     configured), so the Scorer single-caller contract holds by
//     construction and any number of application threads may call
//     Recommend()/RecommendMany() concurrently;
//   * a sharded util::ShardedLruCache in front of the scorers, keyed on
//     (user, topic, top_n, params_epoch) and storing the ranked top-n
//     list. Invalidate() bumps the epoch, which makes every cached entry
//     unreachable in O(1) — stale entries are then evicted by ordinary LRU
//     pressure. The dynamic-update path (service::MutationApplier) Rebinds
//     once per applied batch, which implies Invalidate(), so serving never
//     returns results from before an edge change. Queries carrying
//     an exclusion list bypass the cache entirely (the key space is
//     (user, topic, top_n) only). RecommendIfCached() is the non-blocking
//     probe of the same cache: net::Server's event loop answers a fresh
//     hit with it and hands everything else to a dispatcher;
//   * serving counters and the per-query log2 latency histogram live in an
//     obs::Registry (EngineConfig::registry, or a private one), so the
//     STATS projection, the log line, and Prometheus exposition all read
//     the same source of truth.
//
// Requests are core::Query objects: deadline expiry is answered with
// kDeadlineExceeded (checked at admission and again on the worker before
// scoring), and exclusion lists are honored by the scorers' shared
// RankingBuilder. Candidate-scoring mode is not served here (it exists for
// the offline evaluation protocol): queries must have empty `candidates`.
//
// Epoch scheme: the epoch only ever grows, and doubles as the *graph
// epoch* surfaced on every reply (bumped once per Rebind / applied
// mutation batch by the live-mutation path, see service::MutationApplier).
// Epochs are observed under the rebind lock, so a query sees one
// consistent (graph, epoch) pair end-to-end: a scored result is stamped
// with — and cached under — the epoch read under the same shared-lock hold
// that scored it, and a cache hit is stamped with the lookup epoch, which
// by key equality is exactly the epoch its entry was computed at. A reply
// can therefore never claim a newer epoch than the graph its ranking was
// computed against — correctness never depends on the cache.
//
// Degradation ladder (DESIGN.md §6.8): with `EngineConfig::degrade`
// enabled (and a landmark index configured), every worker owns BOTH an
// exact scorer and the landmark approximation, and a
// service::PressureMonitor picks the serving tier per query:
// exact → approx at the first inflight watermark (or when the recent p99
// is over target), and at the second watermark dead-epoch cache entries —
// which Invalidate() then *retains* for `stale_keep_epochs` generations
// instead of purging — become a last-resort stale tier before the network
// layer sheds. Every reply says which tier served it (ServeMeta). The
// watermarks count the misses this engine has admitted and not finished:
// behind net::Server that is at most `dispatch_threads` single RECOMMENDs
// at once, but every miss of a RECOMMEND_BATCH (DESIGN.md §6.8).

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/authority.h"
#include "core/params.h"
#include "core/recommender_iface.h"
#include "core/scorer.h"
#include "graph/labeled_graph.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "obs/metrics.h"
#include "service/pressure.h"
#include "service/response.h"
#include "topics/similarity_matrix.h"
#include "topics/topic.h"
#include "util/arena.h"
#include "util/lru_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace mbr::service {

// The serving request is the core request object.
using Query = core::Query;

// Degradation-ladder policy (DESIGN.md §6.8). Off by default: a plain
// engine keeps today's single-tier behaviour (exact, or approx when a
// landmark index is configured) and purges dead-epoch cache entries
// eagerly.
struct DegradeConfig {
  // Enables the ladder. Requires EngineConfig::landmarks (the approx tier
  // is the ladder's middle rung); ignored without one.
  bool enabled = false;
  // Watermarks + recent-p99 target driving tier choice.
  PressureConfig pressure;
  // How many dead epochs of cached results Invalidate() retains as the
  // stale tier's inventory (0 = keep none, stale tier never hits).
  uint32_t stale_keep_epochs = 4;
};

struct EngineConfig {
  // Worker threads: 0 = hardware concurrency.
  uint32_t num_threads = 0;
  // Total cached result lists across all shards; 0 disables the cache.
  size_t cache_capacity = 0;
  core::ScoreParams params;
  // When non-null, queries are served by the landmark approximation
  // (Algorithm 2) instead of converged exact scoring. Must outlive the
  // engine; `approx.params` is overridden by `params`.
  const landmark::LandmarkIndex* landmarks = nullptr;
  landmark::ApproxConfig approx;
  // Degradation ladder. With `degrade.enabled` and a landmark index, the
  // engine serves exact when unpressured and walks the ladder under load
  // (each worker then owns both recommenders).
  DegradeConfig degrade;
  // Where the engine registers its counters/histogram. nullptr = the
  // engine owns a private registry (hermetic stats in tests); `mbrec
  // serve` passes &obs::Registry::Default() so one exposition covers the
  // whole process. Must outlive the engine.
  obs::Registry* registry = nullptr;
};

// The engine's latency histogram uses the obs floor-log2 bucketing (the
// PR-2 convention: bucket b counts [2^b, 2^(b+1)) µs, bucket 0 also holds
// sub-microsecond samples, 1 µs lands in bucket 0 and exactly 2^k µs in
// bucket k).
inline constexpr int kLatencyBuckets = obs::kHistogramBuckets;

inline int LatencyBucket(uint64_t us) { return obs::Log2Bucket(us); }

// Snapshot of the engine's serving counters (a projection of the registry
// series; see StatsSnapshot for the wire/log-line projection on top).
struct EngineStats {
  uint64_t queries = 0;   // total queries admitted
  uint64_t batches = 0;   // RecommendMany calls + RecommendIfCached hits
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;  // queries that ran a scorer
  uint64_t invalidations = 0;
  uint64_t deadline_exceeded = 0;  // queries answered kDeadlineExceeded
  uint64_t params_epoch = 0;
  // Per-tier serving counters (mbr_engine_tier_served_total{tier=…}),
  // indexed by core::Tier's numeric value, plus the count of queries
  // served below the engine's best tier (mbr_engine_degraded_total).
  std::array<uint64_t, 3> tier_served{};
  uint64_t degraded = 0;
  // latency_log2_us[b] counts queries with latency in [2^b, 2^(b+1)) µs
  // (bucket 0 also holds sub-microsecond samples); see LatencyBucket().
  // Cache hits and scored queries both land here (hits in the lowest
  // buckets).
  std::array<uint64_t, kLatencyBuckets> latency_log2_us{};

  // Lower bound 2^b (µs) of the bucket containing the p-th percentile
  // sample — a floor estimate, exact for power-of-two latencies (a stream
  // of 1 µs queries reports p99 = 1, not 2). p in [0, 1].
  double LatencyPercentileMicros(double p) const;
};

class QueryEngine {
 public:
  // All references must outlive the engine (or be replaced via Rebind
  // before they die). The authority index must match `g`.
  QueryEngine(const graph::LabeledGraph& g,
              const core::AuthorityIndex& authority,
              const topics::SimilarityMatrix& sim,
              const EngineConfig& config);
  ~QueryEngine() = default;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Blocking single query. Thread-safe; cache hits resolve on the calling
  // thread, misses score on a pool worker. Expired deadlines yield
  // kDeadlineExceeded. Preconditions: user < num_nodes, topic <
  // num_topics, top_n > 0, candidates empty.
  util::Result<Response> Recommend(const core::Query& query);

  // Never blocks: answers `query` into *out only when its list is in the
  // result cache under the current epoch, and counts it exactly as
  // Recommend() counts a hit. Returns false — counting nothing — on a
  // miss, for a query with an exclusion list or an expired deadline, and
  // whenever the rebind lock is held exclusively (a Rebind or a landmark
  // repair is running). The caller then takes the blocking path, which
  // sees the epoch that hold publishes. Never serves the stale tier.
  // Thread-safe; same preconditions as Recommend().
  bool RecommendIfCached(const core::Query& query, Response* out);

  // Batched queries, fanned across the worker pool. results[i] always
  // answers queries[i] (input order is preserved regardless of which
  // worker served which query). Thread-safe.
  std::vector<util::Result<Response>> RecommendMany(
      std::span<const core::Query> queries);

  // The RECOMMEND_PARTIAL shard op (DESIGN.md §6.7): the pruned
  // decomposed exploration of Algorithm 2, run on a pool worker under the
  // rebind lock and stamped with the epoch observed under the same hold.
  // Only landmark engines serve it (exact engines answer
  // kInvalidArgument); out-of-bounds queries answer kInvalidArgument
  // rather than aborting, since the op arrives over the wire. Bypasses
  // the result cache. Thread-safe. The router no longer calls it; the
  // next benchmark change deletes it with perfbench's routed layer pass.
  struct PartialExploration {
    uint64_t graph_epoch = 0;
    std::vector<landmark::DecomposedRecord> records;
  };
  util::Result<PartialExploration> ExplorePartial(const core::Query& q);

  // Convenience over Recommend() for in-process callers with no deadline
  // or exclusions (CLI, tests, benchmarks): the ranked entries, or the
  // error Recommend() reported (deadline expiry, admission failures).
  // Recoverable serving errors propagate — they never abort the process.
  util::Result<std::vector<util::ScoredId>> TopN(graph::NodeId user,
                                                 topics::TopicId topic,
                                                 uint32_t top_n);

  // Drops all cached results in O(1) by bumping the params epoch, then
  // sweeps entries keyed to dead epochs out of the cache so they stop
  // occupying capacity (they are unreachable by fresh-lookup key equality
  // the moment the epoch moves). With the degradation ladder enabled the
  // sweep retains the newest `stale_keep_epochs` dead generations — the
  // stale tier's inventory — and only purges older ones. Rebind and
  // RunExclusive call it, so an applied mutation batch or a landmark
  // repair never serves stale lists as fresh.
  void Invalidate();

  // Points the engine at a new graph snapshot (e.g. a materialised
  // DeltaGraph) and rebuilds every worker's scorer against it. Implies
  // Invalidate(). Blocks until in-flight queries drain; both references
  // must outlive the engine, and the new graph must keep the old node-id
  // universe (DeltaGraph::Materialize does).
  void Rebind(const graph::LabeledGraph& g,
              const core::AuthorityIndex& authority);

  // Runs `fn` while holding the rebind lock exclusively (no query in
  // flight), then bumps the epoch. The in-place landmark repair path uses
  // this to refresh one landmark's stored lists without queries observing
  // a half-written list.
  void RunExclusive(const std::function<void()>& fn);

  // Installs a hook invoked once per scored (cache-miss) query, under the
  // shared rebind lock. It returns whether any landmark list is currently
  // marked-but-unrepaired; the landmark repairer's probe also counts such
  // queries (mbr_repair_stale_reads_total). An approx-tier query scored
  // while the probe reports staleness may have composed an outdated
  // stored list, so its reply is stamped served_tier = kStale. Not
  // thread-safe against in-flight queries: install before serving
  // traffic.
  void SetStaleProbe(std::function<bool()> probe);

  uint64_t params_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  uint32_t num_workers() const { return pool_.num_workers(); }
  // Bounds of the currently-bound graph, for callers (e.g. the network
  // server's event loop) that must validate queries before Recommend()'s
  // hard preconditions. Lock-free: Rebind publishes them under its
  // exclusive hold, so a read never waits behind one.
  uint32_t num_nodes() const { return num_nodes_.load(); }
  uint32_t num_topics() const { return num_topics_.load(); }
  // The best tier this engine can serve (kExact, or kApprox for a
  // landmark-only engine without the ladder).
  core::Tier base_tier() const { return base_tier_; }
  bool degrade_enabled() const { return degrade_enabled_; }
  // The ladder's pressure signal (watermark state, recent p99). Valid for
  // the engine's lifetime; read-only observers are thread-safe.
  const PressureMonitor& pressure() const { return monitor_; }

  // The registry holding the engine's series (the configured one, or the
  // engine-owned private registry).
  obs::Registry& registry() { return *registry_; }

  EngineStats Stats() const;

 private:
  struct CacheKey {
    graph::NodeId user = 0;
    topics::TopicId topic = 0;
    uint32_t top_n = 0;
    uint64_t epoch = 0;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      uint64_t h = (static_cast<uint64_t>(k.user) << 32) |
                   ((static_cast<uint64_t>(k.topic) << 16) ^ k.top_n);
      h ^= k.epoch + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };
  // Cached value: the ranked list plus the tier that computed it, so a
  // hit's reply can name its true provenance.
  struct CachedList {
    std::vector<util::ScoredId> entries;
    core::Tier tier = core::Tier::kExact;
  };
  using Cache = util::ShardedLruCache<CacheKey, CachedList, CacheKeyHash>;

  // Per-worker scoring state; indexed by the pool's worker id. With the
  // ladder enabled both recommenders exist; otherwise exactly one does.
  struct Worker {
    std::unique_ptr<core::Scorer> scorer;
    std::unique_ptr<landmark::ApproxRecommender> approx;
  };

  // Registry-backed serving counters.
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* invalidations = nullptr;
    obs::Counter* cache_purged = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* tier_served[3] = {nullptr, nullptr, nullptr};
    obs::Counter* degraded = nullptr;
    obs::Histogram* latency_us = nullptr;
  };

  void BuildWorkers();
  // Scores one query on worker `wid` (cache miss path) at the tier the
  // ladder currently allows, records its latency, and stamps the tier.
  // Caller must hold rebind_mu_ shared.
  util::Result<Response> ExecuteQuery(uint32_t wid, const core::Query& q);
  // The tier a scored (miss-path) query serves at right now: the base
  // tier, or approx while the ladder is pressured. Never returns kStale
  // (admission resolves the ladder's stale tier; ExecuteQuery may still
  // downgrade an approx reply to kStale when the stale probe reports
  // unrepaired landmark lists).
  core::Tier ChooseScoredTier() const;
  // Counts one served reply in the per-tier/degraded series.
  void CountServed(core::Tier tier);
  // The reply for a result-cache hit found since `timer` started, stamped
  // with `epoch` and cached.tier. Counts the hit, its latency (which the
  // pressure monitor observes too) and its tier: every hit, fresh or
  // stale, blocking or probed, is counted here.
  Response ServeHit(const util::WallTimer& timer, CachedList cached,
                    uint64_t epoch);
  void RecordLatencySeconds(double seconds);
  bool CacheLookup(const CacheKey& key, CachedList* out);
  // Probes dead-epoch cache keys (newest first) for the stale tier.
  // Returns true and fills *out / *age on a hit.
  bool StaleLookup(const core::Query& q, uint64_t epoch, CachedList* out,
                   uint32_t* age);

  const graph::LabeledGraph* g_;
  const core::AuthorityIndex* authority_;
  const topics::SimilarityMatrix* sim_;
  EngineConfig config_;
  std::function<bool()> stale_probe_;

  // Ladder state, derived from config in the constructor.
  bool degrade_enabled_ = false;
  core::Tier base_tier_ = core::Tier::kExact;
  bool has_exact_ = true;
  bool has_approx_ = false;
  PressureMonitor monitor_;

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;

  // Queries hold this shared; Rebind holds it exclusive to swap scorers.
  std::shared_mutex rebind_mu_;
  // g_'s bounds, written under the exclusive hold that swaps g_.
  std::atomic<uint32_t> num_nodes_;
  std::atomic<uint32_t> num_topics_;
  // Per-worker query arenas (DESIGN.md §6.6). Created once in the
  // constructor and handed to each worker's scorer, so the warmed scratch
  // survives Rebind() scorer swaps. Declared before workers_ so the
  // scorers (which hold raw arena pointers) destruct first.
  std::vector<std::unique_ptr<util::QueryArena>> arenas_;
  std::vector<Worker> workers_;
  std::unique_ptr<Cache> cache_;

  std::atomic<uint64_t> epoch_{0};

  // Declared last so its destructor joins the workers while the scorers
  // and cache above are still alive.
  util::ThreadPool pool_;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_QUERY_ENGINE_H_
