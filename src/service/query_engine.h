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
//     list. Every Publish() bumps the epoch, which makes every cached
//     entry unreachable in O(1), and then sweeps the dead entries out. The
//     dynamic-update path (service::MutationApplier) publishes once per
//     applied batch, so serving never returns results from before an edge
//     change. Queries carrying an exclusion list bypass the cache entirely
//     (the key space is (user, topic, top_n) only). RecommendIfCached() is
//     the non-blocking probe of the same cache: net::Server's event loop
//     answers a fresh hit with it and hands everything else to a
//     dispatcher;
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
// Epoch scheme (DESIGN.md §6.1): what the engine serves is one immutable
// Generation — graph, authority, landmark index and graph epoch — and
// Publish() is the only way to change it. The epoch only ever grows and is
// the *graph epoch* surfaced on every reply. A scored query pins the
// current generation once, scores on it, and is stamped with — and cached
// under — that generation's epoch, however many publishes land meanwhile;
// a worker re-points its recommenders when its pin changes. A cache hit
// needs only the current epoch: an entry's key names the epoch of the
// generation that computed it, and the hit is stamped with it. A reply can
// therefore never claim a newer epoch than the graph its ranking was
// computed against — correctness never depends on the cache. Writers
// serialise on a mutex that no reader takes; a pin holds another mutex only
// for the pointer copy, so no reader ever waits on a publish, and no
// publish waits on a reader.
//
// Degradation ladder (DESIGN.md §6.8): with `EngineConfig::degrade`
// enabled (and a landmark index configured), every worker owns BOTH an
// exact scorer and the landmark approximation, and a
// service::PressureMonitor picks the serving tier per query:
// exact → approx at the first inflight watermark (or when the recent p99
// is over target), and at the second watermark dead-epoch cache entries —
// which Publish() then *retains* for `stale_keep_epochs` generations
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
#include <mutex>
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
  // How many dead epochs of cached results Publish() retains as the
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
  // engine; `approx.params` is overridden by `params`. It is the first
  // generation's index: a landmark repair publishes a new one, so read the
  // live lists through generation()->index.
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

// One immutable serving generation: everything a scored query reads. The
// engine never edits a published one, so a query that pinned it reads one
// consistent state.
struct Generation {
  std::shared_ptr<const graph::LabeledGraph> graph;
  std::shared_ptr<const core::AuthorityIndex> authority;
  // Algorithm 2's stored lists; null for an exact-only engine.
  std::shared_ptr<const landmark::LandmarkIndex> index;
  // The graph epoch of every reply scored on this generation.
  uint64_t epoch = 0;
  // Staleness (DESIGN.md §6.5), recorded per generation: graph changes
  // published so far, and per landmark slot the graph version its stored
  // lists were computed on. A slot whose lists are older than the graph is
  // stale, so a graph change makes every slot stale in the very publish
  // that serves it, and a repair credits only the version it computed on.
  uint64_t graph_version = 0;
  std::vector<uint64_t> lists_version;
  size_t stale_slots = 0;

  bool stale() const { return stale_slots > 0; }
};

// The one change a Publish() makes to the current generation. An empty
// change only bumps the epoch, which retires the result cache.
struct GenerationChange {
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  // A graph change: the next graph (same node and topic counts) and its
  // authority index, both or neither.
  std::shared_ptr<const graph::LabeledGraph> graph;
  std::shared_ptr<const core::AuthorityIndex> authority;
  // A landmark repair: landmark slot `slot`'s stored lists, computed on the
  // generation whose graph_version was `lists_version`.
  uint32_t slot = kNoSlot;
  landmark::LandmarkIndex::Lists lists;
  uint64_t lists_version = 0;
};

class QueryEngine {
 public:
  // The references are the first generation and must outlive the engine.
  // The authority index must match `g`.
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
  // miss, and for a query with an exclusion list or an expired deadline.
  // Never serves the stale tier. Thread-safe; same preconditions as
  // Recommend().
  bool RecommendIfCached(const core::Query& query, Response* out);

  // Batched queries, fanned across the worker pool. results[i] always
  // answers queries[i] (input order is preserved regardless of which
  // worker served which query). Thread-safe.
  std::vector<util::Result<Response>> RecommendMany(
      std::span<const core::Query> queries);

  // The RECOMMEND_PARTIAL shard op (DESIGN.md §6.7): the pruned
  // decomposed exploration of Algorithm 2, run on a pool worker and stamped
  // with the epoch of the generation it pinned.
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

  // The only way to change what the engine serves: builds the next
  // generation from the current one plus `change`, publishes it under the
  // next epoch, and sweeps entries keyed to dead epochs out of the cache
  // (they are unreachable by fresh-lookup key equality the moment the
  // epoch moves). With the degradation ladder enabled the sweep retains
  // the newest `stale_keep_epochs` dead generations — the stale tier's
  // inventory — and only purges older ones. Never waits on a reader;
  // concurrent publishes are applied in some order. Returns the new epoch.
  uint64_t Publish(GenerationChange change);

  // Pins the current generation: it stays alive, unchanged, for as long as
  // the caller holds it. Thread-safe.
  std::shared_ptr<const Generation> generation() const;

  // Installs a hook invoked once per scored (cache-miss) query after it
  // pinned its generation, with whether that generation holds stale
  // landmark lists; the landmark repairer's probe counts such queries
  // (mbr_repair_stale_reads_total). The reply's tier comes from the pinned
  // generation, not from the hook: an approx-tier query scored on a
  // generation with a stale slot may have composed an outdated stored
  // list, so its reply is stamped served_tier = kStale. Not thread-safe
  // against in-flight queries: install before serving traffic.
  void SetStaleProbe(std::function<void(bool stale)> probe);

  uint64_t params_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  uint32_t num_workers() const { return pool_.num_workers(); }
  // The engine's node universe, which every published graph keeps, for
  // callers (e.g. the network server's event loop) that must validate
  // queries before Recommend()'s hard preconditions.
  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t num_topics() const { return num_topics_; }
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
  // `gen` is the generation they point at, held so it outlives them.
  struct Worker {
    std::shared_ptr<const Generation> gen;
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

  // Pins the current generation for worker `w`, re-pointing its
  // recommenders when the pin changed, and returns it.
  const Generation& Pin(Worker& w);
  // Scores one query on worker `w`, pinned to `gen` (cache miss path), at
  // the tier the ladder currently allows, records its latency, and stamps
  // the tier.
  util::Result<Response> ExecuteQuery(Worker& w, const Generation& gen,
                                      const core::Query& q);
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

  const topics::SimilarityMatrix* sim_;
  EngineConfig config_;
  std::function<void(bool)> stale_probe_;

  // Ladder state, derived from config in the constructor.
  bool degrade_enabled_ = false;
  core::Tier base_tier_ = core::Tier::kExact;
  bool has_exact_ = true;
  bool has_approx_ = false;
  PressureMonitor monitor_;

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;

  // The node universe of every generation.
  const uint32_t num_nodes_;
  const uint32_t num_topics_;
  // Serialises Publish(); no reader takes it.
  std::mutex publish_mu_;
  // The current generation; gen_mu_ is held only to copy the pointer.
  mutable std::mutex gen_mu_;
  std::shared_ptr<const Generation> gen_;
  // Per-worker query arenas (DESIGN.md §6.6). Created once in the
  // constructor and handed to each worker's recommenders, so the warmed
  // scratch survives their re-pointing at new generations. Declared before
  // workers_ so the scorers (which hold raw arena pointers) destruct first.
  std::vector<std::unique_ptr<util::QueryArena>> arenas_;
  std::vector<Worker> workers_;
  std::unique_ptr<Cache> cache_;

  // The current generation's epoch, stored before the generation itself
  // so a cache probe, which reads only this, never looks up an older epoch
  // than one a reader could already have pinned.
  std::atomic<uint64_t> epoch_{0};

  // Declared last so its destructor joins the workers while the scorers
  // and cache above are still alive.
  util::ThreadPool pool_;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_QUERY_ENGINE_H_
