#include "coord/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/timer.h"

namespace mbr::coord {

namespace {

// Milliseconds until `t`, rounded up so a wait never ends early, and at
// least 1.
uint32_t MsUntil(std::chrono::steady_clock::time_point t) {
  const int64_t left_ms = std::chrono::ceil<std::chrono::milliseconds>(
                              t - std::chrono::steady_clock::now())
                              .count();
  return static_cast<uint32_t>(std::max<int64_t>(left_ms, 1));
}

}  // namespace

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
      "Routed queries degraded to partial replies (home shard down/late).");
  metrics_.shard_errors = registry_->GetCounter(
      "mbr_coord_shard_errors_total", "Failed shard RPCs.");
  metrics_.shard_latency_us = registry_->GetHistogram(
      "mbr_coord_shard_latency_us",
      "Per-shard RPC round-trip latency in microseconds.");

  std::vector<net::ClientConfig> endpoints;
  endpoints.reserve(plan_.num_shards());
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    net::ClientConfig c;
    c.host = plan_.endpoints()[s].host;
    c.port = static_cast<uint16_t>(plan_.endpoints()[s].port);
    c.request_timeout_ms = config_.shard_timeout_ms;
    endpoints.push_back(std::move(c));
  }
  pool_ = std::make_unique<net::ClientPool>(std::move(endpoints));

  net::ServerConfig front;
  front.host = config_.host;
  front.port = config_.port;
  front.max_connections = config_.max_connections;
  // Routed work blocks on shard RPCs, so every admissible request gets a
  // dispatcher: up to max_connections requests route at once.
  front.max_inflight = config_.max_connections;
  front.dispatch_threads = config_.max_connections;
  // The front end adds no deadline of its own, so req.deadline is the
  // client's (the frame's tightest deadline_ms) and shard RPCs carry what
  // is left of it (ShardDeadlineMs).
  front.request_deadline_ms = 0;
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

  // One shard RPC per home shard, in order of each home's first query, so
  // the first failing home speaks for the frame — the single-node batch
  // contract.
  std::vector<std::vector<size_t>> slots(plan_.num_shards());
  std::vector<uint32_t> homes;
  for (size_t i = 0; i < req.queries.size(); ++i) {
    const uint32_t home = plan_.ShardOf(req.queries[i].user);
    if (slots[home].empty()) homes.push_back(home);
    slots[home].push_back(i);
  }
  metrics_.requests->Increment(req.queries.size());
  std::vector<net::ResultReply> routed(req.queries.size());
  for (uint32_t home : homes) {
    util::Status st = Forward(req, home, slots[home], &routed);
    if (!st.ok()) return net::MakeErrorReply(st);
  }
  return net::MakeResultReply(req.kind, std::move(routed));
}

template <typename Fn>
auto Router::CallShard(uint32_t shard, uint32_t budget_ms, Fn&& fn)
    -> decltype(fn(std::declval<net::Client&>(), budget_ms)) {
  metrics_.fanout->Increment();
  util::WallTimer timer;
  const auto budget_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  auto checkout = pool_->Checkout(shard, budget_ms);
  if (!checkout.ok()) {
    metrics_.shard_errors->Increment();
    return checkout.status();
  }
  auto result = fn(**checkout, budget_ms == 0 ? 0 : MsUntil(budget_end));
  metrics_.shard_latency_us->Record(
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  if (result.ok()) {
    pool_->Return(shard, std::move(*checkout));
  } else {
    metrics_.shard_errors->Increment();  // connection dropped, not pooled
  }
  return result;
}

uint32_t Router::ShardDeadlineMs(const net::Request& req) const {
  if (!req.deadline) return config_.shard_timeout_ms;
  const uint32_t client_ms = MsUntil(*req.deadline);
  if (config_.shard_timeout_ms == 0) return client_ms;
  return std::min(client_ms, config_.shard_timeout_ms);
}

bool Router::IsShardLoss(const util::Status& status,
                         const net::Request& req) const {
  switch (status.code()) {
    case util::StatusCode::kUnavailable:  // refused / shed / clean close
    case util::StatusCode::kIoError:      // EPIPE / ECONNRESET mid-RPC
      return true;
    case util::StatusCode::kDeadlineExceeded:
      // Only the router's own shard_timeout_ms backstop expired: the
      // client asked for no deadline, so it must not see an error a
      // single-node server would never have produced.
      return !req.deadline;
    default:
      return false;
  }
}

util::Status Router::Forward(const net::Request& req, uint32_t home,
                             const std::vector<size_t>& slots,
                             std::vector<net::ResultReply>* routed) {
  // A batch's home shards are asked one after another against the one
  // frame deadline, which fails the frame once it has run out, as on a
  // single node.
  if (req.deadline && std::chrono::steady_clock::now() >= *req.deadline) {
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  std::vector<net::RecommendRequest> queries;
  queries.reserve(slots.size());
  for (size_t i : slots) queries.push_back(req.queries[i]);
  auto replies = CallShard(
      home, ShardDeadlineMs(req),
      [&](net::Client& c,
          uint32_t left_ms) -> util::Result<std::vector<net::ResultReply>> {
        // What the dial left of the budget is both the wire deadline and
        // the transport bound, so a shard that never answers (or never
        // accepts) cannot hold the client past its own deadline.
        for (net::RecommendRequest& q : queries) q.deadline_ms = left_ms;
        if (req.kind == net::MessageKind::kRecommendBatch) {
          return c.RecommendBatchEx(queries, left_ms);
        }
        auto one = c.RecommendEx(queries.front(), left_ms);
        if (!one.ok()) return one.status();
        return std::vector<net::ResultReply>{std::move(*one)};
      });
  if (!replies.ok()) {
    if (!IsShardLoss(replies.status(), req)) {
      return replies.status();  // relayed unchanged (deadline, invalid, ...)
    }
    if (!config_.degrade_partial) {
      return util::Status::Unavailable("home shard " + std::to_string(home) +
                                       " lost: " + replies.status().message());
    }
    // Home shard down/overloaded: degrade its queries, never hang or fail
    // the client.
    metrics_.partial->Increment(slots.size());
  }
  for (size_t k = 0; k < slots.size(); ++k) {
    net::ResultReply& out = (*routed)[slots[k]];
    if (replies.ok()) {
      out = std::move((*replies)[k]);
      out.coord.partial = 0;
      out.coord.shards_answered = 1;
    } else {
      out.coord.partial = 1;
      out.coord.shards_answered = 0;
    }
    out.coord.shards_total = static_cast<uint16_t>(plan_.num_shards());
  }
  return util::Status::Ok();
}

service::StatsSnapshot Router::RollupStats() {
  service::StatsSnapshot s;
  uint32_t up = 0;
  for (uint32_t shard = 0; shard < plan_.num_shards(); ++shard) {
    auto snap = CallShard(shard, /*budget_ms=*/0,
                          [](net::Client& c, uint32_t) { return c.Stats(); });
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
