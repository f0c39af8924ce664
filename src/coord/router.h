#ifndef MBR_COORD_ROUTER_H_
#define MBR_COORD_ROUTER_H_

// The coordinator/router tier (DESIGN.md §6.7): one process that makes N
// `mbrec serve --shard <i>` processes look like a single recommender.
//
// Clients speak the ordinary wire protocol to the router (RECOMMEND,
// RECOMMEND_BATCH, STATS, METRICS, PING, SHUTDOWN). Every shard answers
// its own users completely: it holds the halo of its partition and, in
// landmark mode, the full landmark index, so its ordinary QueryEngine
// (cache included) replies **byte-identically** to a single-node server
// over the full graph. The router therefore only forwards: a RECOMMEND
// goes to the user's home shard, and a RECOMMEND_BATCH is split into one
// RECOMMEND_BATCH per home shard, reassembled in request order. Each list
// keeps the home shard's graph epoch and served tier.
//
// Partial-result policy: each shard call gets what is left of the client
// deadline (min with shard_timeout_ms), and a batch whose deadline runs
// out between home shards fails with DEADLINE_EXCEEDED, as on one node.
// A home shard that is down, overloaded, or times out degrades its
// queries to *partial* replies — empty lists under a coordinator trailer
// with partial=1 and the answered/total shard counts, counted in
// mbr_coord_partial_total — rather than failing or hanging the client
// (`degrade_partial = false` turns that loss into an ERROR instead, for
// deployments that prefer failing fast over partial answers). Queries
// homed on live shards are untouched. Errors a single-node server would
// return for the same query (DEADLINE_EXCEEDED, INVALID_ARGUMENT) are
// relayed as ERROR unchanged. Mutations are rejected: the partitioned
// tier serves read-only.
//
// Shard connections: a net::ClientPool per router, dialed from the plan's
// endpoints with shard_timeout_ms as the request timeout. It keeps at
// most ClientPool::kMaxIdle idle connections per shard; a connection
// whose RPC failed is dropped, and the next RPC dials once, so a shard
// that is still down costs one refused connect and degrades as above.
//
// Front end: the router is a net::Server handler, so client connections
// get the same epoll loop, framing and checks as a shard or single-node
// server — it sheds past its admission bound (OVERLOADED), drains with a
// grace backstop, counts refused connections, and exports the mbr_net_*
// series beside mbr_coord_* in its registry. Routed requests and the STATS
// rollup block on shard RPCs, so they run on the server's dispatchers, one
// per admissible request: max_connections is both the admission bound and
// the dispatcher count.

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
  // min(what is left of the client deadline, shard_timeout_ms); the
  // transport backstop is shard_timeout_ms so a hung shard can never hang
  // the client.
  uint32_t shard_timeout_ms = 2000;
  // true (default): a lost home shard (down / shed / timed out) degrades
  // its queries to partial replies. false: it becomes an ERROR
  // (UNAVAILABLE) — the `mbrec route --degrade off` policy.
  bool degrade_partial = true;
  // mbr_coord_* and mbr_net_* series registry. nullptr = router-owned
  // private registry.
  obs::Registry* registry = nullptr;
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

  // Forwards the queries of `req` at `slots` (all homed on `home`) in one
  // shard RPC of req's kind and fills their `routed` replies: the home
  // shard's lists, epochs and tiers, or partial replies when the shard is
  // lost. A non-OK status is relayed to the client as ERROR (the same
  // statuses a single-node server would send).
  util::Status Forward(const net::Request& req, uint32_t home,
                       const std::vector<size_t>& slots,
                       std::vector<net::ResultReply>* routed);
  // Runs `fn(client)` against `shard` through the pool, recording shard
  // latency and errors; the connection returns to the pool only on success.
  template <typename Fn>
  auto CallShard(uint32_t shard, Fn&& fn)
      -> decltype(fn(std::declval<net::Client&>()));
  // The wire deadline of a shard RPC for `req`: what is left of the
  // client's deadline (req.deadline, at least 1 ms), capped by
  // shard_timeout_ms; 0 only if both are unset.
  uint32_t ShardDeadlineMs(const net::Request& req) const;
  // Is this shard-RPC failure an infrastructure loss (down / shed /
  // conn-loss / the shard_timeout_ms backstop) — degrade to partial
  // replies — or an error a single-node server would also have returned
  // for these queries (relay as ERROR)? A deadline expiry counts as loss
  // only when the client itself set no deadline (the expired budget was
  // purely the router's backstop).
  bool IsShardLoss(const util::Status& status, const net::Request& req) const;

  struct Metrics {
    obs::Counter* requests = nullptr;      // client queries routed
    obs::Counter* fanout = nullptr;        // shard RPCs issued
    obs::Counter* partial = nullptr;       // queries degraded to partial
    obs::Counter* shard_errors = nullptr;  // failed shard RPCs
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
