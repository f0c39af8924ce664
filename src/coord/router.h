#ifndef MBR_COORD_ROUTER_H_
#define MBR_COORD_ROUTER_H_

// The coordinator/router tier (DESIGN.md §6.7): one process that makes N
// `mbrec serve --shard <i>` processes look like a single recommender.
//
// Clients speak the ordinary wire protocol to the router (RECOMMEND,
// RECOMMEND_BATCH, STATS, METRICS, PING, SHUTDOWN); the router
// scatter-gathers over the shard fleet through a pooled net::Client set
// and merges shard answers so the routed reply is **byte-identical** to
// what a single-node QueryEngine over the full graph would produce:
//
//   * landmark mode: the user's home shard answers RECOMMEND_PARTIAL with
//     the decomposed exploration records (reached order preserved) plus
//     the inline stored lists of its own landmarks; lists of landmarks
//     homed elsewhere are gathered via LANDMARK_FETCH. The router then
//     replays the exact ScoresFlat combine loop — same per-key addition
//     order, same landmark::ComposeViaLandmark expression (one inline
//     definition shared with approx.cc, so compiler contraction cannot
//     diverge) — and ranks through the same core::RankingBuilder /
//     util::TopK total order (score desc, id asc). Only landmark
//     contributions ever cross shard boundaries (Prop. 4).
//   * exact mode: exploration never leaves the home shard's halo
//     (halo_depth >= max_depth - 1), so the router simply forwards the
//     RECOMMEND to the home shard and relays the reply.
//
// Partial-result policy: each shard call gets a deadline derived from the
// client deadline (min with shard_timeout_ms). A shard that is down,
// overloaded, or times out degrades the reply to a *partial* merge — the
// coordinator trailer carries partial=1 and the answered/total shard
// counts, and mbr_coord_partial_total is bumped — rather than failing or
// hanging the client (`degrade_partial = false` turns that loss into an
// ERROR instead, for deployments that prefer failing fast over partial
// answers). Errors a single-node server would return for the same query
// (DEADLINE_EXCEEDED, INVALID_ARGUMENT) are relayed as ERROR unchanged.
// Mutations are rejected: the partitioned tier serves read-only.
//
// Front end: the router is a net::Server handler, so client connections
// get the same epoll loop, framing and checks as a shard or single-node
// server — it sheds past its admission bound (OVERLOADED), drains with a
// grace backstop, counts refused connections, and exports the mbr_net_*
// series beside mbr_coord_* in its registry. Routed requests and the STATS
// rollup block on shard RPCs, so they run on the server's dispatchers, one
// per admissible request: max_connections is both the admission bound and
// the dispatcher count.
//
// Tier merge: every shard reply names the degradation-ladder tier that
// served it, and the routed reply carries the *max* (most degraded) tier
// over the shard replies that fed it — a pressured shard degrades the
// whole routed answer, composing with (but orthogonal to) the partial
// trailer. In landmark mode the merged ranking is the landmark
// approximation by construction, so the routed tier is at least kApprox.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/shard_plan.h"
#include "net/client.h"
#include "net/client_pool.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/serving_stats.h"
#include "util/status.h"

namespace mbr::coord {

struct RouterConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral (see Router::port())
  // Client connections; also the admission bound and dispatcher count.
  uint32_t max_connections = 64;
  // Per-shard round-trip budget. The wire deadline sent to a shard is
  // min(client deadline_ms, shard_timeout_ms); the transport backstop is
  // shard_timeout_ms so a hung shard can never hang the client.
  uint32_t shard_timeout_ms = 2000;
  // true: RECOMMEND_PARTIAL + LANDMARK_FETCH merge (landmark engines on
  // the shards). false: forward RECOMMEND to the home shard (exact
  // engines; needs plan halo_depth >= max_depth - 1).
  bool landmark_mode = true;
  // true (default): a lost shard (down / shed / timed out) degrades the
  // reply to a partial merge. false: it becomes an ERROR (UNAVAILABLE) —
  // the `mbrec route --degrade off` policy.
  bool degrade_partial = true;
  net::WireLimits limits;
  // Template for the per-shard client connections (connect timeout,
  // reconnect backoff). host, port and request_timeout_ms are overwritten
  // per shard.
  net::ClientConfig shard_client;
  // mbr_coord_* and mbr_net_* series registry. nullptr = router-owned
  // private registry.
  obs::Registry* registry = nullptr;
  // Idle pooled connections kept per shard.
  size_t pool_idle = 4;
};

class Router : private net::Handler {
 public:
  // Endpoints are taken from `plan` (after any SetEndpoint overrides).
  Router(const ShardPlan& plan, const RouterConfig& config);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Binds, listens, and starts the front end.
  util::Status Start() { return server_->Start(); }
  // The bound port (useful with config.port == 0). Valid after Start().
  uint16_t port() const { return server_->port(); }
  // Initiates graceful drain. Async-signal-safe. Idempotent.
  void RequestStop() { server_->RequestStop(); }
  // Blocks until the drain completes and all threads are joined.
  void Wait() { server_->Wait(); }

  bool running() const { return server_->running(); }

  // The coordinator STATS rollup: sum of the shard snapshots (counters
  // summed, percentile floors maxed) plus shards_total/shards_up.
  service::StatsSnapshot RollupStats();

  obs::Registry& registry() { return *registry_; }

 private:
  // net::Handler: the front end range-checks against the plan's universe,
  // answers everything but routed work and STATS inline (as errors), and
  // runs Handle on a dispatcher for the rest.
  uint32_t num_nodes() const override {
    return static_cast<uint32_t>(plan_.num_nodes());
  }
  uint32_t num_topics() const override { return plan_.num_topics(); }
  bool Inline(const net::Request& req) const override;
  net::Reply Handle(const net::Request& req) override;

  // One routed RECOMMEND: the merged ranked list, the home shard's graph
  // epoch, the max served tier over contributing shard replies, and the
  // coordinator trailer. A non-OK result is relayed to the client as
  // ERROR (the same statuses a single-node server would send).
  util::Result<net::ResultReply> RouteOne(const net::RecommendRequest& req);
  util::Result<net::ResultReply> RouteLandmark(
      const net::RecommendRequest& req, uint32_t home);
  util::Result<net::ResultReply> RouteExact(const net::RecommendRequest& req,
                                            uint32_t home);
  // Runs `fn(client)` against `shard` through the pool, recording shard
  // latency and errors; the connection returns to the pool only on success.
  template <typename Fn>
  auto CallShard(uint32_t shard, Fn&& fn)
      -> decltype(fn(std::declval<net::Client&>()));
  // min(client deadline, shard_timeout_ms); 0 only if both are unset.
  uint32_t ShardDeadlineMs(uint32_t client_deadline_ms) const;
  // Is this shard-RPC failure an infrastructure loss (down / shed /
  // conn-loss / the shard_timeout_ms backstop) — degrade to a partial
  // merge — or an error a single-node server would also have returned for
  // this query (relay as ERROR)? A deadline expiry counts as loss only
  // when the client itself set no deadline (the expired budget was purely
  // the router's backstop).
  bool IsShardLoss(const util::Status& status,
                   uint32_t client_deadline_ms) const;

  struct Metrics {
    obs::Counter* requests = nullptr;          // client RECOMMENDs routed
    obs::Counter* fanout = nullptr;            // shard RPCs issued
    obs::Counter* partial = nullptr;           // replies degraded to partial
    obs::Counter* shard_errors = nullptr;      // failed shard RPCs
    obs::Counter* landmark_fetches = nullptr;  // LANDMARK_FETCH RPCs
    obs::Histogram* shard_latency_us = nullptr;
  };

  ShardPlan plan_;
  RouterConfig config_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;
  std::unique_ptr<net::ClientPool> pool_;
  // Last member: destroyed (drained, dispatchers joined) first.
  std::unique_ptr<net::Server> server_;
};

}  // namespace mbr::coord

#endif  // MBR_COORD_ROUTER_H_
