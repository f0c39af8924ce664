#ifndef MBR_PERFBENCH_LAYERS_H_
#define MBR_PERFBENCH_LAYERS_H_

// The traced run's per-layer pass: each layer's public functions called
// directly on a fixed sample of the workload's requests, one request at a
// time, each call wrapped in a benchmark-side span (see trace.h).
//
// Span tree of one sampled read:
//
//   single node   net.loopback            RecommendEx over loopback
//                   net.codec             Encode/Decode of request + reply
//                   service.engine        QueryEngine::Recommend in-process
//                     landmark.recommend  ApproxRecommender::Recommend (miss)
//                       core.explore      Scorer::Explore, depth 2, pruned
//                     core.explore        Scorer::Explore, converged (exact)
//   routed        coord.route             RecommendEx to the router
//                   net.codec
//                   coord.partial_rpc     Client::RecommendPartial, home shard
//                     service.engine      QueryEngine::ExplorePartial, home
//                       core.explore      Scorer::Explore, depth 2, pruned
//                   coord.fetch_rpc       Client::FetchLandmarks, other shard
//
// The loopback side and the in-process engine are twins built for this
// pass with the workload's configuration, cold, and fed the same warm-up
// prefix of the sample in the same order, so each sampled request hits or
// misses the cache on both sides alike. Landmark and scorer calls are made
// for cache misses only, the requests on whose path they lie.
//
// The pass runs in rounds over chunks of the sample, layer-major within a
// chunk: a chunk's calls of one layer run back to back before the next
// layer's, as each layer's threads run under load. Interleaving the layers
// per request would move the graph between cores' caches on every call and
// time each layer cold.

#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "stacks.h"
#include "trace.h"

namespace mbr::perfbench {

struct LayerResult {
  Tracer trace;
  // Per-layer metrics measured by this pass, by name.
  std::map<std::string, double> metrics;
  // Σ over the layers of a read of p50(self time), µs.
  double read_self_sum_us = 0.0;
  // Human-readable remarks (cross-checks that did not hold).
  std::vector<std::string> notes;
};

// `sample` holds `warmup` warm-up reads followed by the measured ones.
// On single-node landmark workloads `writes` is applied through an
// in-process mutable engine with its landmark repairer running. Spans are
// timed from `origin`.
LayerResult MeasureLayers(const WorkloadSpec& spec, const Dataset& dataset,
                          Stack& stack, const std::vector<ReadOp>& sample,
                          size_t warmup, const std::vector<WriteBatch>& writes,
                          Tracer::Clock::time_point origin);

}  // namespace mbr::perfbench

#endif  // MBR_PERFBENCH_LAYERS_H_
