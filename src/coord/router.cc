#include "coord/router.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/recommender_iface.h"
#include "landmark/compose.h"
#include "util/flat_map.h"
#include "util/timer.h"

namespace mbr::coord {

Router::Router(const ShardPlan& plan, const RouterConfig& config)
    : plan_(plan), config_(config) {
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_.requests = registry_->GetCounter(
      "mbr_coord_requests_total", "Client queries routed by the coordinator.");
  metrics_.fanout = registry_->GetCounter(
      "mbr_coord_fanout_total", "Shard RPCs issued by the coordinator.");
  metrics_.partial = registry_->GetCounter(
      "mbr_coord_partial_total",
      "Routed replies degraded to a partial merge (shard down/late).");
  metrics_.shard_errors = registry_->GetCounter(
      "mbr_coord_shard_errors_total", "Failed shard RPCs.");
  metrics_.landmark_fetches = registry_->GetCounter(
      "mbr_coord_landmark_fetches_total",
      "LANDMARK_FETCH RPCs for lists homed off the query's home shard.");
  metrics_.shard_latency_us = registry_->GetHistogram(
      "mbr_coord_shard_latency_us",
      "Per-shard RPC round-trip latency in microseconds.");

  std::vector<net::ClientConfig> endpoints;
  endpoints.reserve(plan_.num_shards());
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    net::ClientConfig c = config_.shard_client;
    c.host = plan_.endpoints()[s].host;
    c.port = static_cast<uint16_t>(plan_.endpoints()[s].port);
    c.request_timeout_ms = config_.shard_timeout_ms;
    endpoints.push_back(std::move(c));
  }
  pool_ = std::make_unique<net::ClientPool>(std::move(endpoints),
                                            config_.pool_idle);

  net::ServerConfig front;
  front.host = config_.host;
  front.port = config_.port;
  front.max_connections = config_.max_connections;
  // Routed work blocks on shard RPCs, so every admissible request gets a
  // dispatcher: up to max_connections requests route at once.
  front.max_inflight = config_.max_connections;
  front.dispatch_threads = config_.max_connections;
  // Shard RPCs carry the client's own deadline (ShardDeadlineMs); the
  // front end adds none.
  front.request_deadline_ms = 0;
  front.limits = config_.limits;
  front.registry = registry_;
  server_ = std::make_unique<net::Server>(static_cast<net::Handler&>(*this),
                                          front);
}

bool Router::Inline(const net::Request& req) const {
  return req.kind != net::MessageKind::kRecommend &&
         req.kind != net::MessageKind::kRecommendBatch &&
         req.kind != net::MessageKind::kStats;
}

net::Reply Router::Handle(const net::Request& req) {
  switch (req.kind) {
    case net::MessageKind::kStats:
      return {net::MessageKind::kStatsResult, net::EncodeStats(RollupStats())};
    case net::MessageKind::kRecommend:
    case net::MessageKind::kRecommendBatch:
      break;
    case net::MessageKind::kRecommendPartial:
    case net::MessageKind::kLandmarkFetch:
      return net::MakeErrorReply(
          net::WireError::kInvalidArgument,
          "shard ops are answered by shards, not the router");
    default:
      return net::MakeErrorReply(net::WireError::kInvalidArgument,
                                 "the partitioned tier serves read-only "
                                 "(mutations are not routed)");
  }

  std::vector<net::ResultReply> routed;
  routed.reserve(req.queries.size());
  for (const net::RecommendRequest& r : req.queries) {
    util::Result<net::ResultReply> one = RouteOne(r);
    // First failure speaks for the frame, mirroring the single-node batch
    // contract.
    if (!one.ok()) return net::MakeErrorReply(one.status());
    routed.push_back(std::move(*one));
  }
  return net::MakeResultReply(req.kind, std::move(routed));
}

template <typename Fn>
auto Router::CallShard(uint32_t shard, Fn&& fn)
    -> decltype(fn(std::declval<net::Client&>())) {
  metrics_.fanout->Increment();
  util::WallTimer timer;
  auto checkout = pool_->Checkout(shard);
  if (!checkout.ok()) {
    metrics_.shard_errors->Increment();
    return checkout.status();
  }
  auto result = fn(**checkout);
  metrics_.shard_latency_us->Record(
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  if (result.ok()) {
    pool_->Return(shard, std::move(*checkout));
  } else {
    metrics_.shard_errors->Increment();  // connection dropped, not pooled
  }
  return result;
}

uint32_t Router::ShardDeadlineMs(uint32_t client_deadline_ms) const {
  if (client_deadline_ms == 0) return config_.shard_timeout_ms;
  if (config_.shard_timeout_ms == 0) return client_deadline_ms;
  return std::min(client_deadline_ms, config_.shard_timeout_ms);
}

bool Router::IsShardLoss(const util::Status& status,
                         uint32_t client_deadline_ms) const {
  switch (status.code()) {
    case util::StatusCode::kUnavailable:  // refused / shed / clean close
    case util::StatusCode::kIoError:      // EPIPE / ECONNRESET mid-RPC
      return true;
    case util::StatusCode::kDeadlineExceeded:
      // Only the router's own shard_timeout_ms backstop expired: the
      // client asked for no deadline, so it must not see an error a
      // single-node server would never have produced.
      return client_deadline_ms == 0;
    default:
      return false;
  }
}

util::Result<net::ResultReply> Router::RouteOne(
    const net::RecommendRequest& req) {
  metrics_.requests->Increment();
  const uint32_t home = plan_.ShardOf(req.user);
  return config_.landmark_mode ? RouteLandmark(req, home)
                               : RouteExact(req, home);
}

util::Result<net::ResultReply> Router::RouteExact(
    const net::RecommendRequest& req, uint32_t home) {
  net::ResultReply out;
  out.coord.shards_total = static_cast<uint16_t>(plan_.num_shards());
  net::RecommendRequest sreq = req;
  sreq.deadline_ms = ShardDeadlineMs(req.deadline_ms);
  auto reply =
      CallShard(home, [&](net::Client& c) { return c.RecommendEx(sreq); });
  if (!reply.ok()) {
    if (IsShardLoss(reply.status(), req.deadline_ms)) {
      if (!config_.degrade_partial) {
        return util::Status::Unavailable("home shard " + std::to_string(home) +
                                         " lost: " + reply.status().message());
      }
      // Home shard down/overloaded: degrade, never hang or fail the client.
      metrics_.partial->Increment();
      out.coord.partial = 1;
      out.coord.shards_answered = 0;
      return out;
    }
    return reply.status();  // relayed unchanged (deadline, invalid, ...)
  }
  out.entries = std::move(reply->entries);
  out.graph_epoch = reply->graph_epoch;
  out.served_tier = reply->served_tier;  // max over {home} = the home's tier
  out.coord.shards_answered = 1;
  return out;
}

util::Result<net::ResultReply> Router::RouteLandmark(
    const net::RecommendRequest& req, uint32_t home) {
  net::ResultReply out;
  out.coord.shards_total = static_cast<uint16_t>(plan_.num_shards());
  net::RecommendRequest sreq = req;
  sreq.deadline_ms = ShardDeadlineMs(req.deadline_ms);
  auto partial = CallShard(
      home, [&](net::Client& c) { return c.RecommendPartial(sreq); });
  if (!partial.ok()) {
    if (IsShardLoss(partial.status(), req.deadline_ms)) {
      if (!config_.degrade_partial) {
        return util::Status::Unavailable("home shard " + std::to_string(home) +
                                         " lost: " +
                                         partial.status().message());
      }
      metrics_.partial->Increment();
      out.coord.partial = 1;
      out.coord.shards_answered = 0;
      return out;
    }
    return partial.status();
  }
  net::PartialReply preply = std::move(*partial);
  out.graph_epoch = preply.graph_epoch;
  // The merged ranking is the landmark approximation by construction, so
  // the routed tier is kApprox regardless of how relaxed the shards were.
  out.served_tier = static_cast<uint8_t>(core::Tier::kApprox);

  // Gather the stored lists of landmarks homed off the home shard, one
  // LANDMARK_FETCH per distinct home. A failed fetch degrades those
  // landmarks' contributions (partial merge), mirroring the shard-down
  // policy, instead of failing the query.
  std::vector<std::vector<uint32_t>> want(plan_.num_shards());
  for (const net::PartialRecord& rec : preply.records) {
    if ((rec.flags & net::kPartialFlagLandmark) != 0 &&
        (rec.flags & net::kPartialFlagInline) == 0) {
      want[plan_.ShardOf(rec.node)].push_back(rec.node);
    }
  }
  uint16_t contacted = 1;  // the home shard
  uint16_t answered = 1;
  std::vector<net::LandmarkVectorsReply> fetched;
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    if (want[s].empty()) continue;
    ++contacted;
    metrics_.landmark_fetches->Increment();
    auto vectors = CallShard(s, [&](net::Client& c) {
      return c.FetchLandmarks(req.topic, want[s]);
    });
    if (!vectors.ok()) {
      if (!config_.degrade_partial) {
        return util::Status::Unavailable("landmark shard " +
                                         std::to_string(s) + " lost: " +
                                         vectors.status().message());
      }
      continue;
    }
    ++answered;
    fetched.push_back(std::move(*vectors));
  }
  std::unordered_map<uint32_t, const net::LandmarkList*> lists;
  for (const net::LandmarkList& l : preply.lists) lists[l.landmark] = &l;
  for (const net::LandmarkVectorsReply& reply : fetched) {
    for (const net::LandmarkList& l : reply.lists) lists[l.landmark] = &l;
  }

  // Replay of ApproxRecommender::ScoresFlat's combine loop over the wire
  // records: records preserve reached order and each stored list is a
  // verbatim copy, so every per-key addition happens in the same order,
  // with the same ComposeViaLandmark expression, as on a single node —
  // the accumulated doubles are bit-identical.
  const uint32_t u = req.user;
  util::FlatMap<graph::NodeId, double> scores(preply.records.size() * 2);
  bool missing_list = false;
  for (const net::PartialRecord& rec : preply.records) {
    scores[rec.node] += rec.sigma;
    if ((rec.flags & net::kPartialFlagLandmark) == 0) continue;
    auto it = lists.find(rec.node);
    if (it == lists.end()) {
      missing_list = true;  // fetch failed or plan/shard disagreement
      continue;
    }
    for (const net::LandmarkEntry& e : it->second->entries) {
      if (e.node == u) continue;
      scores[e.node] += landmark::ComposeViaLandmark(
          rec.sigma, rec.topo_alphabeta, e.sigma, e.topo_beta);
    }
  }

  // Identical ranking semantics to the single-node path: RankingBuilder
  // drops non-positive scores, the query user, and excluded ids; TopK's
  // total order (score desc, id asc) makes offer order irrelevant.
  core::Query q;
  q.user = req.user;
  q.topic = static_cast<topics::TopicId>(req.topic);
  q.top_n = req.top_n;
  q.exclude.assign(req.exclude.begin(), req.exclude.end());
  core::RankingBuilder builder(q);
  for (const auto& [node, score] : scores) builder.Offer(node, score);
  out.entries = builder.Take().entries;

  out.coord.shards_answered = answered;
  if (answered < contacted || missing_list) {
    if (!config_.degrade_partial) {
      return util::Status::Unavailable(
          "landmark merge incomplete with degrade off");
    }
    metrics_.partial->Increment();
    out.coord.partial = 1;
  }
  return out;
}

service::StatsSnapshot Router::RollupStats() {
  service::StatsSnapshot s;
  uint32_t up = 0;
  for (uint32_t shard = 0; shard < plan_.num_shards(); ++shard) {
    auto snap = CallShard(shard, [](net::Client& c) { return c.Stats(); });
    if (!snap.ok()) continue;
    ++up;
    s.queries += snap->queries;
    s.batches += snap->batches;
    s.cache_hits += snap->cache_hits;
    s.cache_misses += snap->cache_misses;
    s.invalidations += snap->invalidations;
    s.deadline_exceeded += snap->deadline_exceeded;
    s.shed_overload += snap->shed_overload;
    s.shed_deadline += snap->shed_deadline;
    s.connections_accepted += snap->connections_accepted;
    s.connections_open += snap->connections_open;
    s.tier_exact += snap->tier_exact;
    s.tier_approx += snap->tier_approx;
    s.tier_stale += snap->tier_stale;
    s.degraded += snap->degraded;
    s.params_epoch = std::max(s.params_epoch, snap->params_epoch);
    // Percentile floors: the fleet's p99 is at least the worst shard's.
    s.p50_us = std::max(s.p50_us, snap->p50_us);
    s.p90_us = std::max(s.p90_us, snap->p90_us);
    s.p99_us = std::max(s.p99_us, snap->p99_us);
  }
  s.shards_total = plan_.num_shards();
  s.shards_up = up;
  return s;
}

}  // namespace mbr::coord
