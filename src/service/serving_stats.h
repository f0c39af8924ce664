#ifndef MBR_SERVICE_SERVING_STATS_H_
#define MBR_SERVICE_SERVING_STATS_H_

// One plain-struct view of "how is this replica serving" shared by every
// consumer: the STATS wire message (net/protocol encodes the fields as-is),
// the `mbrec serve` periodic log line, and tests. Keeping a single snapshot
// type means the network answer and the operator log can never drift apart.

#include <cstdint>
#include <string>

#include "service/query_engine.h"

namespace mbr::service {

// Flat, trivially-copyable snapshot of serving counters. Engine-only
// deployments leave the shed/connection fields zero; the network server
// fills them in.
struct StatsSnapshot {
  uint64_t queries = 0;        // total queries admitted by the engine
  uint64_t batches = 0;        // RecommendMany calls
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t invalidations = 0;
  // Queries the engine answered kDeadlineExceeded (admission or worker).
  uint64_t deadline_exceeded = 0;
  uint64_t params_epoch = 0;
  // Admission control (network layer): requests refused with OVERLOADED,
  // and requests whose deadline expired before a dispatcher picked them up.
  uint64_t shed_overload = 0;
  uint64_t shed_deadline = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  // Latency percentiles out of the engine's log2 histogram (lower bounds,
  // microseconds; see EngineStats::LatencyPercentileMicros).
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  // Coordinator rollup: a coord::Router answers STATS with the sum of its
  // shards' snapshots plus these; single-node replicas leave them zero.
  uint32_t shards_total = 0;
  uint32_t shards_up = 0;
  // Degradation ladder: replies served per tier, indexed by core::Tier's
  // numeric value, and replies served below the engine's best tier.
  uint64_t tier_exact = 0;
  uint64_t tier_approx = 0;
  uint64_t tier_stale = 0;
  uint64_t degraded = 0;

  double HitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

// Projects the engine's counters (histogram included) into the flat
// snapshot; shed/connection fields are left for the caller.
StatsSnapshot MakeStatsSnapshot(const EngineStats& s);

// The canonical one-line rendering, e.g.
//   "queries=120 hit=41.7% shed=3+0 expired=1 conns=2/17 p50=128us
//    p90=512us p99=1024us tiers=100/15/5 degraded=20"
// (shed is overload+deadline at the network layer, expired is the engine's
// own deadline-exceeded count, conns is open/accepted, tiers is
// exact/approx/stale).
std::string FormatStatsLine(const StatsSnapshot& s);

}  // namespace mbr::service

#endif  // MBR_SERVICE_SERVING_STATS_H_
