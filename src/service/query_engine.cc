#include "service/query_engine.h"

#include <algorithm>
#include <chrono>
#include <latch>

#include "obs/slow_query_log.h"
#include "obs/span.h"
#include "util/timer.h"

namespace mbr::service {

namespace {

inline uint8_t TierV(core::Tier t) { return static_cast<uint8_t>(t); }

// Lock shards of the result cache.
constexpr uint32_t kCacheShards = 16;

}  // namespace

double EngineStats::LatencyPercentileMicros(double p) const {
  uint64_t total = 0;
  for (uint64_t c : latency_log2_us) total += c;
  if (total == 0) return 0.0;
  uint64_t need = static_cast<uint64_t>(p * static_cast<double>(total));
  if (need < 1) need = 1;
  uint64_t seen = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    seen += latency_log2_us[b];
    // Bucket b spans [2^b, 2^(b+1)); report its lower bound.
    if (seen >= need) return static_cast<double>(uint64_t{1} << b);
  }
  return static_cast<double>(uint64_t{1} << (kLatencyBuckets - 1));
}

QueryEngine::QueryEngine(const graph::LabeledGraph& g,
                         const core::AuthorityIndex& authority,
                         const topics::SimilarityMatrix& sim,
                         const EngineConfig& config)
    : g_(&g),
      authority_(&authority),
      sim_(&sim),
      config_(config),
      monitor_(config.degrade.pressure),
      pool_(config.num_threads) {
  // The ladder needs the approx tier as its middle rung; without a
  // landmark index it silently stays off (single exact tier).
  degrade_enabled_ = config_.degrade.enabled && config_.landmarks != nullptr;
  has_approx_ = config_.landmarks != nullptr;
  // A landmark engine without the ladder serves approx only (the
  // pre-ladder behaviour); with it, exact is the unpressured tier.
  has_exact_ = config_.landmarks == nullptr || degrade_enabled_;
  base_tier_ = has_exact_ ? core::Tier::kExact : core::Tier::kApprox;
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_.queries = registry_->GetCounter(
      "mbr_engine_queries_total", "Queries admitted by the engine.");
  metrics_.batches = registry_->GetCounter("mbr_engine_batches_total",
                                           "RecommendMany calls.");
  metrics_.cache_hits = registry_->GetCounter(
      "mbr_engine_cache_hits_total", "Queries answered from the result cache.");
  metrics_.cache_misses = registry_->GetCounter(
      "mbr_engine_cache_misses_total", "Queries that ran a scorer.");
  metrics_.invalidations = registry_->GetCounter(
      "mbr_engine_invalidations_total",
      "Cache invalidations (params-epoch bumps).");
  metrics_.cache_purged = registry_->GetCounter(
      "mbr_engine_cache_purged_total",
      "Dead-epoch result-cache entries swept out on invalidation.");
  metrics_.deadline_exceeded = registry_->GetCounter(
      "mbr_engine_deadline_exceeded_total",
      "Queries answered kDeadlineExceeded by the engine.");
  for (int t = 0; t < 3; ++t) {
    metrics_.tier_served[t] = registry_->GetCounter(
        "mbr_engine_tier_served_total",
        "Replies served, by degradation-ladder tier.",
        {{"tier", core::TierName(static_cast<core::Tier>(t))}});
  }
  metrics_.degraded = registry_->GetCounter(
      "mbr_engine_degraded_total",
      "Replies served below the engine's best tier.");
  metrics_.latency_us = registry_->GetHistogram(
      "mbr_engine_latency_us",
      "Per-query engine latency in microseconds (hits and misses).");
  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<Cache>(config_.cache_capacity, kCacheShards);
  }
  arenas_.reserve(pool_.num_workers());
  for (uint32_t i = 0; i < pool_.num_workers(); ++i) {
    arenas_.push_back(std::make_unique<util::QueryArena>());
  }
  BuildWorkers();
}

void QueryEngine::BuildWorkers() {
  workers_.clear();
  workers_.resize(pool_.num_workers());
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    // Each worker's scorer borrows the worker's long-lived arena: Rebind()
    // replaces the scorer but the warmed scratch block carries over, so the
    // first query after a rebind still runs allocation-free. With the
    // ladder on, the approx recommender's internal scorer shares the same
    // arena — workers are single-caller, so the scratch is never live in
    // both at once.
    util::QueryArena* arena = arenas_[i].get();
    if (has_approx_) {
      landmark::ApproxConfig ac = config_.approx;
      ac.params = config_.params;
      w.approx = std::make_unique<landmark::ApproxRecommender>(
          *g_, *authority_, *sim_, *config_.landmarks, ac, arena);
    }
    if (has_exact_) {
      w.scorer = std::make_unique<core::Scorer>(
          *g_, *authority_, *sim_, config_.params,
          has_approx_ ? nullptr : arena);
    }
  }
}

void QueryEngine::RecordLatencySeconds(double seconds) {
  metrics_.latency_us->Record(static_cast<uint64_t>(seconds * 1e6));
}

void QueryEngine::CountServed(core::Tier tier) {
  metrics_.tier_served[TierV(tier)]->Increment();
  if (TierV(tier) > TierV(base_tier_)) metrics_.degraded->Increment();
}

bool QueryEngine::CacheLookup(const CacheKey& key, CachedList* out) {
  if (cache_ == nullptr) return false;
  return cache_->Get(key, out);
}

bool QueryEngine::StaleLookup(const core::Query& q, uint64_t epoch,
                              CachedList* out, uint32_t* age) {
  if (cache_ == nullptr) return false;
  const uint32_t keep = config_.degrade.stale_keep_epochs;
  for (uint32_t a = 1; a <= keep && a <= epoch; ++a) {
    if (CacheLookup(CacheKey{q.user, q.topic, q.top_n, epoch - a}, out)) {
      *age = a;
      return true;
    }
  }
  return false;
}

core::Tier QueryEngine::ChooseScoredTier() const {
  // Under pressure the ladder scores approx; a stale verdict landing here
  // means the stale lookup missed, so approx is the cheapest scored tier.
  if (degrade_enabled_ && monitor_.AllowedTier() != core::Tier::kExact) {
    return core::Tier::kApprox;
  }
  return base_tier_;
}

util::Result<Response> QueryEngine::ExecuteQuery(uint32_t wid,
                                                const core::Query& q) {
  util::WallTimer timer;
  // Trace the scored path: spans opened below (and inside the scorers)
  // attach their timings, and the whole breakdown lands in the slow-query
  // log when the query crosses the threshold.
  obs::QueryTrace trace(obs::Enabled() ? &obs::SlowQueryLog::Default()
                                       : nullptr,
                        q.user, q.topic, q.top_n);
  const core::Tier tier = ChooseScoredTier();
  obs::QueryTrace::SetServedTier(core::TierName(tier));
  util::Result<Response> out = [&]() -> util::Result<Response> {
    MBR_SPAN("engine.execute");
    const bool repair_stale = stale_probe_ && stale_probe_();
    Worker& w = workers_[wid];
    Response resp;
    resp.meta.served_tier = tier;
    if (tier == core::Tier::kApprox) {
      util::Result<core::Ranking> r = w.approx->Recommend(q);
      if (!r.ok()) return r.status();
      resp.ranking = std::move(r.value());
      // The composition above may have consulted a marked-but-unrepaired
      // landmark list, so answer honestly at the stale tier. Exact-tier
      // scoring never reads stored lists and keeps its tier.
      if (repair_stale) resp.meta.served_tier = core::Tier::kStale;
      return resp;
    }
    if (q.expired()) {
      return util::Status::DeadlineExceeded("query deadline expired");
    }
    const core::ExplorationResult& res =
        w.scorer->Explore(q.user, topics::TopicSet::Single(q.topic));
    core::RankingBuilder builder(q);
    for (graph::NodeId v : res.reached()) {
      builder.Offer(v, res.Sigma(v, q.topic));
    }
    resp.ranking = builder.Take();
    return resp;
  }();
  RecordLatencySeconds(timer.ElapsedSeconds());
  if (!out.ok() && out.status().code() == util::StatusCode::kDeadlineExceeded) {
    metrics_.deadline_exceeded->Increment();
  }
  if (out.ok()) CountServed(out.value().meta.served_tier);
  return out;
}

util::Result<Response> QueryEngine::Recommend(const core::Query& query) {
  auto results = RecommendMany(std::span<const core::Query>(&query, 1));
  return std::move(results.front());
}

util::Result<std::vector<util::ScoredId>> QueryEngine::TopN(
    graph::NodeId user, topics::TopicId topic, uint32_t top_n) {
  util::Result<Response> r = Recommend(Query::TopN(user, topic, top_n));
  if (!r.ok()) return r.status();
  return std::move(r.value().ranking.entries);
}

std::vector<util::Result<Response>> QueryEngine::RecommendMany(
    std::span<const core::Query> queries) {
  metrics_.batches->Increment();
  metrics_.queries->Increment(queries.size());
  std::vector<util::Result<Response>> results(
      queries.size(),
      util::Result<Response>(util::Status::Internal("unanswered")));
  if (queries.empty()) return results;

  std::vector<size_t> misses;
  misses.reserve(queries.size());
  uint64_t expired_at_admission = 0;
  {
    // Shared lock: validation reads the current graph, which Rebind swaps
    // under the exclusive lock. Released before the latch wait below so a
    // concurrent Rebind can never deadlock against in-flight batches.
    std::shared_lock<std::shared_mutex> lock(rebind_mu_);
    // The epoch is read under the same lock hold that reads the graph, so
    // (graph, epoch) is a consistent pair: a hit under `epoch` was cached
    // by a query that scored the same graph generation.
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    for (const core::Query& q : queries) {
      MBR_CHECK(q.user < g_->num_nodes());
      MBR_CHECK(q.topic < g_->num_topics());
      MBR_CHECK(q.top_n > 0);
      MBR_CHECK(q.candidates.empty());  // serving is top-n only
    }
    // Resolve cache hits inline on the calling thread — a warm repeat
    // query never touches the pool. Queries with exclusions or deadlines
    // already blown skip the cache.
    for (size_t i = 0; i < queries.size(); ++i) {
      const core::Query& q = queries[i];
      if (q.expired()) {
        results[i] = util::Status::DeadlineExceeded("query deadline expired");
        ++expired_at_admission;
        continue;
      }
      if (!q.exclude.empty()) {
        misses.push_back(i);
        continue;
      }
      util::WallTimer timer;
      CachedList cached;
      if (CacheLookup(CacheKey{q.user, q.topic, q.top_n, epoch}, &cached)) {
        metrics_.cache_hits->Increment();
        const double seconds = timer.ElapsedSeconds();
        RecordLatencySeconds(seconds);
        monitor_.Observe(static_cast<uint64_t>(seconds * 1e6));
        Response resp;
        resp.ranking.entries = std::move(cached.entries);
        resp.meta.served_tier = cached.tier;
        resp.meta.cache_hit = true;
        resp.meta.graph_epoch = epoch;
        CountServed(cached.tier);
        results[i] = std::move(resp);
        continue;
      }
      // Stale tier: at the deepest watermark, a dead-epoch entry beats
      // scoring at all — serve it (honestly stamped with its old epoch)
      // instead of queueing work.
      if (degrade_enabled_ && monitor_.AllowedTier() == core::Tier::kStale) {
        uint32_t age = 0;
        if (StaleLookup(q, epoch, &cached, &age)) {
          metrics_.cache_hits->Increment();
          const double seconds = timer.ElapsedSeconds();
          RecordLatencySeconds(seconds);
          monitor_.Observe(static_cast<uint64_t>(seconds * 1e6));
          Response resp;
          resp.ranking.entries = std::move(cached.entries);
          resp.meta.served_tier = core::Tier::kStale;
          resp.meta.cache_hit = true;
          resp.meta.graph_epoch = epoch - age;
          resp.meta.stale_age_epochs = age;
          CountServed(core::Tier::kStale);
          results[i] = std::move(resp);
          continue;
        }
      }
      misses.push_back(i);
    }
  }
  metrics_.deadline_exceeded->Increment(expired_at_admission);
  metrics_.cache_misses->Increment(misses.size());
  if (misses.empty()) return results;

  // Pressure accounting: every miss is inflight from admission until its
  // worker finishes it, so the engine's own queue depth (not just active
  // scoring) drives the watermarks — but not requests still waiting in a
  // server's dispatch queue (DESIGN.md §6.8). The admission timestamp
  // makes the observed latency include queue wait.
  const auto admitted = std::chrono::steady_clock::now();
  if (degrade_enabled_) {
    for (size_t m = 0; m < misses.size(); ++m) monitor_.Begin();
  }

  // Fan the misses across the pool in contiguous chunks (several queries
  // per task keeps queue overhead negligible for large batches).
  const size_t num_chunks =
      std::min<size_t>(misses.size(),
                       static_cast<size_t>(pool_.num_workers()) * 4);
  const size_t chunk = (misses.size() + num_chunks - 1) / num_chunks;
  std::latch done(static_cast<ptrdiff_t>(num_chunks));
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, misses.size());
    pool_.Submit([this, &queries, &results, &misses, begin, end, admitted,
                  &done](uint32_t wid) {
      {
        std::shared_lock<std::shared_mutex> lock(rebind_mu_);
        // The scoring epoch is re-read under THIS lock hold — not carried
        // over from admission — so the stamp (and the cache key) always
        // names the graph generation the scorer actually ran against. If a
        // Rebind slipped between admission and here, the entry lands under
        // the new epoch and honestly claims it.
        const uint64_t scoring_epoch = epoch_.load(std::memory_order_acquire);
        for (size_t m = begin; m < end; ++m) {
          const size_t i = misses[m];
          const core::Query& q = queries[i];
          results[i] = ExecuteQuery(wid, q);
          if (degrade_enabled_) {
            const auto waited = std::chrono::steady_clock::now() - admitted;
            monitor_.End(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(waited)
                    .count()));
          }
          if (results[i].ok()) {
            Response& resp = results[i].value();
            resp.meta.graph_epoch = scoring_epoch;
            if (cache_ != nullptr && q.exclude.empty()) {
              cache_->Put(
                  CacheKey{q.user, q.topic, q.top_n, scoring_epoch},
                  CachedList{resp.ranking.entries, resp.meta.served_tier});
            }
          }
        }
      }
      done.count_down();
    });
  }
  done.wait();
  return results;
}

util::Result<QueryEngine::PartialExploration> QueryEngine::ExplorePartial(
    const core::Query& q) {
  metrics_.queries->Increment();
  metrics_.cache_misses->Increment();  // always scored, never cached
  util::Result<PartialExploration> result(
      util::Status::Internal("unanswered"));
  std::latch done(1);
  pool_.Submit([this, &q, &result, &done](uint32_t wid) {
    {
      std::shared_lock<std::shared_mutex> lock(rebind_mu_);
      result = [&]() -> util::Result<PartialExploration> {
        if (!(q.user < g_->num_nodes()) || !(q.topic < g_->num_topics())) {
          return util::Status::InvalidArgument("query out of graph bounds");
        }
        Worker& w = workers_[wid];
        if (w.approx == nullptr) {
          return util::Status::InvalidArgument(
              "partial exploration requires a landmark engine");
        }
        util::WallTimer timer;
        PartialExploration p;
        // Same lock hold as the exploration: the epoch names the graph
        // generation the records were computed against.
        p.graph_epoch = epoch_.load(std::memory_order_acquire);
        util::Status st = w.approx->ExploreDecomposed(q, &p.records);
        RecordLatencySeconds(timer.ElapsedSeconds());
        if (!st.ok()) {
          if (st.code() == util::StatusCode::kDeadlineExceeded) {
            metrics_.deadline_exceeded->Increment();
          }
          return st;
        }
        return p;
      }();
    }
    done.count_down();
  });
  done.wait();
  return result;
}

uint32_t QueryEngine::num_nodes() const {
  std::shared_lock<std::shared_mutex> lock(rebind_mu_);
  return g_->num_nodes();
}

uint32_t QueryEngine::num_topics() const {
  std::shared_lock<std::shared_mutex> lock(rebind_mu_);
  return static_cast<uint32_t>(g_->num_topics());
}

void QueryEngine::Invalidate() {
  const uint64_t new_epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  metrics_.invalidations->Increment();
  if (cache_ != nullptr) {
    // Entries keyed to epochs below `new_epoch` can never be hit by a
    // fresh lookup again (those always use the current epoch). Without
    // the ladder they are swept immediately so they stop occupying LRU
    // capacity; with it, the newest `stale_keep_epochs` dead generations
    // are retained as the stale tier's inventory and only older ones go.
    // The sweep is best-effort against a racing Put() that read the old
    // epoch under a shared-lock hold — that straggler is unreachable (or
    // merely stale-served) too and the next invalidation's sweep collects
    // it.
    const uint64_t keep = degrade_enabled_
                              ? config_.degrade.stale_keep_epochs
                              : 0;
    const uint64_t purge_below =
        new_epoch > keep ? new_epoch - keep : 0;
    size_t purged = cache_->EraseIf([purge_below](const CacheKey& k) {
      return k.epoch < purge_below;
    });
    metrics_.cache_purged->Increment(purged);
  }
}

void QueryEngine::Rebind(const graph::LabeledGraph& g,
                         const core::AuthorityIndex& authority) {
  std::unique_lock<std::shared_mutex> lock(rebind_mu_);
  // Delta-aware fast path (DESIGN.md §6.9): when the node/topic universe is
  // unchanged — every mutation batch, since DeltaGraph materialization
  // preserves it — the workers' recommenders are re-pointed in place and
  // their warmed arena scratch (carved per num_nodes) stays valid, so the
  // first query after the rebind is still allocation-free. Only a
  // universe-changing swap (tests binding an unrelated graph) pays the full
  // worker reconstruction.
  const bool same_universe = g.num_nodes() == g_->num_nodes() &&
                             g.num_topics() == g_->num_topics();
  g_ = &g;
  authority_ = &authority;
  if (same_universe) {
    for (Worker& w : workers_) {
      if (w.scorer != nullptr) w.scorer->Rebind(g, authority);
      if (w.approx != nullptr) w.approx->Rebind(g, authority);
    }
  } else {
    BuildWorkers();
  }
  Invalidate();
}

void QueryEngine::RunExclusive(const std::function<void()>& fn) {
  std::unique_lock<std::shared_mutex> lock(rebind_mu_);
  fn();
  Invalidate();
}

void QueryEngine::SetStaleProbe(std::function<bool()> probe) {
  stale_probe_ = std::move(probe);
}

EngineStats QueryEngine::Stats() const {
  EngineStats s;
  s.queries = metrics_.queries->Value();
  s.batches = metrics_.batches->Value();
  s.cache_hits = metrics_.cache_hits->Value();
  s.cache_misses = metrics_.cache_misses->Value();
  s.invalidations = metrics_.invalidations->Value();
  s.deadline_exceeded = metrics_.deadline_exceeded->Value();
  s.params_epoch = epoch_.load(std::memory_order_relaxed);
  for (int t = 0; t < 3; ++t) s.tier_served[t] = metrics_.tier_served[t]->Value();
  s.degraded = metrics_.degraded->Value();
  obs::Histogram::Snapshot snap = metrics_.latency_us->TakeSnapshot();
  s.latency_log2_us = snap.buckets;
  return s;
}

}  // namespace mbr::service
