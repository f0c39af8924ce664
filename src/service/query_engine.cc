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

// A generation member that the caller owns and keeps alive.
template <typename T>
std::shared_ptr<const T> Borrow(const T& x) {
  return std::shared_ptr<const T>(&x, [](const T*) {});
}

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
    : sim_(&sim),
      config_(config),
      monitor_(config.degrade.pressure),
      num_nodes_(g.num_nodes()),
      num_topics_(static_cast<uint32_t>(g.num_topics())),
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
  metrics_.batches = registry_->GetCounter(
      "mbr_engine_batches_total",
      "RecommendMany calls, and cache hits answered by RecommendIfCached.");
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
  // The first generation borrows the caller's objects, which outlive the
  // engine; later ones own what their publishers built.
  auto first = std::make_shared<Generation>();
  first->graph = Borrow(g);
  first->authority = Borrow(authority);
  if (has_approx_) {
    first->index = Borrow(*config_.landmarks);
    first->lists_version.assign(config_.landmarks->landmarks().size(), 0);
  }
  gen_ = first;

  arenas_.reserve(pool_.num_workers());
  workers_.resize(pool_.num_workers());
  for (uint32_t i = 0; i < pool_.num_workers(); ++i) {
    // Each worker's recommenders borrow the worker's long-lived arena:
    // re-pointing them at a new generation keeps the warmed scratch block,
    // so the first query after a publish still runs allocation-free. With
    // the ladder on, the approx recommender's internal scorer shares the
    // same arena — workers are single-caller, so the scratch is never live
    // in both at once.
    arenas_.push_back(std::make_unique<util::QueryArena>());
    util::QueryArena* arena = arenas_.back().get();
    Worker& w = workers_[i];
    w.gen = first;
    if (has_approx_) {
      landmark::ApproxConfig ac = config_.approx;
      ac.params = config_.params;
      w.approx = std::make_unique<landmark::ApproxRecommender>(
          g, authority, *sim_, *config_.landmarks, ac, arena);
    }
    if (has_exact_) {
      w.scorer = std::make_unique<core::Scorer>(
          g, authority, *sim_, config_.params, has_approx_ ? nullptr : arena);
    }
  }
}

std::shared_ptr<const Generation> QueryEngine::generation() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return gen_;
}

const Generation& QueryEngine::Pin(Worker& w) {
  std::shared_ptr<const Generation> gen = generation();
  if (gen != w.gen) {
    if (w.scorer != nullptr) w.scorer->Rebind(*gen->graph, *gen->authority);
    if (w.approx != nullptr) {
      w.approx->Rebind(*gen->graph, *gen->authority, *gen->index);
    }
    w.gen = std::move(gen);
  }
  return *w.gen;
}

void QueryEngine::RecordLatencySeconds(double seconds) {
  metrics_.latency_us->Record(static_cast<uint64_t>(seconds * 1e6));
}

void QueryEngine::CountServed(core::Tier tier) {
  metrics_.tier_served[TierV(tier)]->Increment();
  if (TierV(tier) > TierV(base_tier_)) metrics_.degraded->Increment();
}

Response QueryEngine::ServeHit(const util::WallTimer& timer,
                               CachedList cached, uint64_t epoch) {
  metrics_.cache_hits->Increment();
  const double seconds = timer.ElapsedSeconds();
  RecordLatencySeconds(seconds);
  monitor_.Observe(static_cast<uint64_t>(seconds * 1e6));
  CountServed(cached.tier);
  Response resp;
  resp.ranking.entries = std::move(cached.entries);
  resp.meta.served_tier = cached.tier;
  resp.meta.cache_hit = true;
  resp.meta.graph_epoch = epoch;
  return resp;
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

util::Result<Response> QueryEngine::ExecuteQuery(Worker& w,
                                                const Generation& gen,
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
    if (stale_probe_) stale_probe_(gen.stale());
    Response resp;
    resp.meta.served_tier = tier;
    if (tier == core::Tier::kApprox) {
      util::Result<core::Ranking> r = w.approx->Recommend(q);
      if (!r.ok()) return r.status();
      resp.ranking = std::move(r.value());
      // The composition above may have consulted a stored list computed
      // on an older graph than the pinned one, so answer honestly at the
      // stale tier. Exact-tier scoring never reads stored lists and keeps
      // its tier.
      if (gen.stale()) resp.meta.served_tier = core::Tier::kStale;
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
    // Admission needs only the epoch: a hit under it was cached by a query
    // that scored the generation of that epoch.
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    for (const core::Query& q : queries) {
      MBR_CHECK(q.user < num_nodes_);
      MBR_CHECK(q.topic < num_topics_);
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
        results[i] = ServeHit(timer, std::move(cached), epoch);
        continue;
      }
      // Stale tier: at the deepest watermark, a dead-epoch entry beats
      // scoring at all — serve it (honestly stamped with its old epoch)
      // instead of queueing work.
      if (degrade_enabled_ && monitor_.AllowedTier() == core::Tier::kStale) {
        uint32_t age = 0;
        if (StaleLookup(q, epoch, &cached, &age)) {
          cached.tier = core::Tier::kStale;
          Response resp = ServeHit(timer, std::move(cached), epoch - age);
          resp.meta.stale_age_epochs = age;
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
      Worker& w = workers_[wid];
      // One pin for the chunk, not carried over from admission: the stamp
      // (and the cache key) name the generation the scorer actually ran
      // against. If a publish slipped in after admission, the entry lands
      // under the new epoch and honestly claims it.
      const Generation& gen = Pin(w);
      for (size_t m = begin; m < end; ++m) {
        const size_t i = misses[m];
        const core::Query& q = queries[i];
        results[i] = ExecuteQuery(w, gen, q);
        if (degrade_enabled_) {
          const auto waited = std::chrono::steady_clock::now() - admitted;
          monitor_.End(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(waited)
                  .count()));
        }
        if (results[i].ok()) {
          Response& resp = results[i].value();
          resp.meta.graph_epoch = gen.epoch;
          if (cache_ != nullptr && q.exclude.empty()) {
            cache_->Put(
                CacheKey{q.user, q.topic, q.top_n, gen.epoch},
                CachedList{resp.ranking.entries, resp.meta.served_tier});
          }
        }
      }
      done.count_down();
    });
  }
  done.wait();
  return results;
}

bool QueryEngine::RecommendIfCached(const core::Query& q, Response* out) {
  if (cache_ == nullptr || !q.exclude.empty() || q.expired()) return false;
  util::WallTimer timer;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  CachedList cached;
  if (!CacheLookup(CacheKey{q.user, q.topic, q.top_n, epoch}, &cached)) {
    return false;
  }
  // A hit is a one-query RecommendMany call that never left the caller.
  metrics_.batches->Increment();
  metrics_.queries->Increment();
  *out = ServeHit(timer, std::move(cached), epoch);
  return true;
}

util::Result<QueryEngine::PartialExploration> QueryEngine::ExplorePartial(
    const core::Query& q) {
  metrics_.queries->Increment();
  metrics_.cache_misses->Increment();  // always scored, never cached
  util::Result<PartialExploration> result(
      util::Status::Internal("unanswered"));
  std::latch done(1);
  pool_.Submit([this, &q, &result, &done](uint32_t wid) {
    result = [&]() -> util::Result<PartialExploration> {
      if (!(q.user < num_nodes_) || !(q.topic < num_topics_)) {
        return util::Status::InvalidArgument("query out of graph bounds");
      }
      Worker& w = workers_[wid];
      if (w.approx == nullptr) {
        return util::Status::InvalidArgument(
            "partial exploration requires a landmark engine");
      }
      util::WallTimer timer;
      PartialExploration p;
      // The epoch names the generation the records were computed against.
      p.graph_epoch = Pin(w).epoch;
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
    done.count_down();
  });
  done.wait();
  return result;
}

uint64_t QueryEngine::Publish(GenerationChange change) {
  std::lock_guard<std::mutex> writer(publish_mu_);
  const std::shared_ptr<const Generation> cur = generation();
  auto next = std::make_shared<Generation>(*cur);
  if (change.graph != nullptr) {
    // One node universe per engine: every worker's scratch is carved for
    // it, and admission validates against it.
    MBR_CHECK(change.authority != nullptr);
    MBR_CHECK(change.graph->num_nodes() == num_nodes_);
    MBR_CHECK(static_cast<uint32_t>(change.graph->num_topics()) ==
              num_topics_);
    next->graph = std::move(change.graph);
    next->authority = std::move(change.authority);
    ++next->graph_version;
  }
  if (change.slot != GenerationChange::kNoSlot) {
    MBR_CHECK(next->index != nullptr);
    MBR_CHECK(change.slot < next->lists_version.size());
    next->index = std::make_shared<const landmark::LandmarkIndex>(
        next->index->WithLists(next->index->landmarks()[change.slot],
                               std::move(change.lists)));
    uint64_t& version = next->lists_version[change.slot];
    version = std::max(version, change.lists_version);
  }
  next->stale_slots = static_cast<size_t>(std::count_if(
      next->lists_version.begin(), next->lists_version.end(),
      [&](uint64_t v) { return v < next->graph_version; }));
  const uint64_t new_epoch = cur->epoch + 1;
  next->epoch = new_epoch;
  // The epoch goes first (see epoch_).
  epoch_.store(new_epoch, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(gen_mu_);
    gen_ = std::move(next);
  }
  metrics_.invalidations->Increment();
  if (cache_ != nullptr) {
    // Entries keyed to epochs below `new_epoch` can never be hit by a
    // fresh lookup again (those always use the current epoch). Without
    // the ladder they are swept immediately so they stop occupying LRU
    // capacity; with it, the newest `stale_keep_epochs` dead generations
    // are retained as the stale tier's inventory and only older ones go.
    // The sweep is best-effort against a racing Put() from a query that
    // pinned an older generation — that straggler is unreachable (or
    // merely stale-served) too and the next publish's sweep collects it.
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
  return new_epoch;
}

void QueryEngine::SetStaleProbe(std::function<void(bool)> probe) {
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
