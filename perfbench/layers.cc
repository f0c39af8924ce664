#include "layers.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/scorer.h"
#include "landmark/approx.h"
#include "net/client.h"
#include "net/protocol.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "stats.h"
#include "topics/similarity_matrix.h"

namespace mbr::perfbench {

namespace {

// Replayed mutation batches: enough for a p50 with 10 samples beyond it.
constexpr size_t kApplyBatches = 24;
// Request ids of replayed batches start here, above every read's.
constexpr uint64_t kBatchRequestBase = uint64_t{1} << 32;

net::RecommendRequest ToRequest(const ReadOp& op) {
  net::RecommendRequest req;
  req.user = op.user;
  req.topic = op.topic;
  req.top_n = kTopN;
  return req;
}

core::Query ToQuery(const ReadOp& op) {
  return core::Query::TopN(op.user, static_cast<topics::TopicId>(op.topic),
                           kTopN);
}

// Encodes and decodes one request and its reply with the public codec.
bool CodecRoundTrip(const net::RecommendRequest& req,
                    const net::ResultReply& reply) {
  const net::WireLimits limits;
  net::RecommendRequest req_back;
  const std::vector<uint8_t> req_bytes = net::EncodeRecommend(req);
  bool ok = net::DecodeRecommend(req_bytes, limits, net::kProtocolVersion,
                                 &req_back)
                .ok();
  net::ResultReply back;
  const std::vector<uint8_t> reply_bytes =
      net::EncodeResult(reply.entries, reply.graph_epoch,
                        net::kProtocolVersion, reply.coord, reply.served_tier);
  ok = ok && net::DecodeResult(reply_bytes, limits, net::kProtocolVersion,
                               &back.entries, &back.graph_epoch, &back.coord,
                               &back.served_tier)
                 .ok();
  return ok && back.entries.size() == reply.entries.size();
}

double P50Of(const std::map<std::string, std::vector<double>>& by_name,
             const char* name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Median(it->second);
}

// p50 of a layer's self time over `reads` reads, counting 0 for the reads
// whose path did not run the layer.
double SelfP50(const std::map<std::string, std::vector<double>>& self,
               const char* name, size_t reads) {
  auto it = self.find(name);
  std::vector<double> v;
  if (it != self.end()) v = it->second;
  if (v.size() < reads) v.resize(reads, 0.0);
  return Median(std::move(v));
}

// The direct landmark and scorer calls of a read: the configuration the
// engines run (default parameters; Algorithm 2 explores to the query
// depth and prunes at landmarks).
struct DirectCalls {
  explicit DirectCalls(const Dataset& d)
      : pruned(d.index != nullptr ? &d.index->landmark_mask() : nullptr),
        scorer(d.graph(), *d.authority, topics::TwitterSimilarity(), [&] {
          core::ScoreParams p;
          if (d.index != nullptr) {
            p.max_depth = landmark::ApproxConfig{}.query_depth;
          }
          return p;
        }()) {
    if (d.index != nullptr) {
      approx.emplace(d.graph(), *d.authority, topics::TwitterSimilarity(),
                     *d.index, landmark::ApproxConfig{});
    }
  }

  // Returns the number of nodes reached.
  size_t Explore(const ReadOp& op) const {
    const auto topic = static_cast<topics::TopicId>(op.topic);
    return scorer.Explore(op.user, topics::TopicSet::Single(topic), pruned)
        .reached()
        .size();
  }

  const std::vector<bool>* pruned;
  core::Scorer scorer;
  std::optional<landmark::ApproxRecommender> approx;
};

// Runs `fn(begin, end)` over [0, n) in kRounds chunks. Each chunk calls one
// layer after another, so a burst of outside load lands on every layer
// alike instead of on whichever layer happened to be running.
constexpr size_t kRounds = 12;

template <typename Fn>
void ForChunks(size_t n, Fn&& fn) {
  const size_t chunk = std::max<size_t>(1, (n + kRounds - 1) / kRounds);
  for (size_t begin = 0; begin < n; begin += chunk) {
    fn(begin, std::min(n, begin + chunk));
  }
}

void SingleNodePass(const Dataset& d, const std::vector<ReadOp>& sample,
                    size_t warmup, LayerResult* out) {
  const landmark::LandmarkIndex* index = d.index.get();
  service::QueryEngine twin(d.graph(), *d.authority,
                            topics::TwitterSimilarity(),
                            BenchEngineConfig(index));
  net::Server twin_server(twin, BenchServerConfig());
  if (!twin_server.Start().ok()) {
    out->notes.push_back("layer pass: twin server did not start");
    return;
  }
  service::QueryEngine engine(d.graph(), *d.authority,
                              topics::TwitterSimilarity(),
                              BenchEngineConfig(index));
  DirectCalls direct(d);
  auto client = net::Client::Connect(BenchClientConfig(twin_server.port()));
  if (!client.ok()) {
    out->notes.push_back("layer pass: cannot connect to the twin server");
    return;
  }

  Tracer& tr = out->trace;
  uint64_t errors = 0;
  warmup = std::min(warmup, sample.size());
  const size_t reads = sample.size() - warmup;
  std::vector<uint32_t> loop_span(reads), engine_span(reads);
  std::vector<net::ResultReply> replies(reads);
  std::vector<bool> hit(reads);

  // Both twins take the warm-up prefix first.
  for (size_t i = 0; i < warmup; ++i) {
    if (!client->RecommendEx(ToRequest(sample[i])).ok()) ++errors;
    if (!engine.Recommend(ToQuery(sample[i])).ok()) ++errors;
  }
  double reached = 0.0;
  size_t explores = 0;
  ForChunks(reads, [&](size_t begin, size_t end) {
    // net: the loopback round trips and the codec.
    for (size_t r = begin; r < end; ++r) {
      loop_span[r] = tr.Time("net.loopback", 0, r + 1, [&] {
        auto reply = client->RecommendEx(ToRequest(sample[warmup + r]));
        if (reply.ok()) {
          replies[r] = std::move(*reply);
        } else {
          ++errors;
        }
      });
    }
    for (size_t r = begin; r < end; ++r) {
      tr.Time("net.codec", loop_span[r], r + 1, [&] {
        if (!CodecRoundTrip(ToRequest(sample[warmup + r]), replies[r])) {
          ++errors;
        }
      });
    }
    // service: the same reads in-process.
    for (size_t r = begin; r < end; ++r) {
      engine_span[r] = tr.Time("service.engine", loop_span[r], r + 1, [&] {
        auto resp = engine.Recommend(ToQuery(sample[warmup + r]));
        if (resp.ok()) {
          hit[r] = resp->meta.cache_hit;
        } else {
          ++errors;
        }
      });
    }
    // landmark, then core: for the misses only, the reads on whose path
    // they lie.
    std::vector<uint32_t> explore_parent(engine_span.begin() + begin,
                                         engine_span.begin() + end);
    if (direct.approx.has_value()) {
      for (size_t r = begin; r < end; ++r) {
        if (hit[r]) continue;
        explore_parent[r - begin] =
            tr.Time("landmark.recommend", engine_span[r], r + 1, [&] {
              if (!direct.approx->Recommend(ToQuery(sample[warmup + r])).ok()) {
                ++errors;
              }
            });
      }
    }
    for (size_t r = begin; r < end; ++r) {
      if (hit[r]) continue;
      tr.Time("core.explore", explore_parent[r - begin], r + 1, [&] {
        reached += static_cast<double>(direct.Explore(sample[warmup + r]));
      });
      ++explores;
    }
  });
  twin_server.RequestStop();
  twin_server.Wait();

  if (errors != 0) {
    out->notes.push_back("layer pass: " + std::to_string(errors) +
                         " calls failed");
  }
  if (twin.Stats().cache_hits != engine.Stats().cache_hits) {
    out->notes.push_back(
        "layer pass: loopback and in-process twins saw different cache hits");
  }
  const auto dur = tr.DurationsByName();
  const auto self = tr.SelfByName();
  const double engine_us = P50Of(dur, "service.engine");
  out->metrics["service.engine_us"] = engine_us;
  out->metrics["net.overhead_us"] = P50Of(dur, "net.loopback") - engine_us;
  out->metrics["net.codec_ns"] = P50Of(dur, "net.codec") * 1e3;
  out->metrics["landmark.recommend_us"] = P50Of(dur, "landmark.recommend");
  out->metrics["core.explore_us"] = P50Of(dur, "core.explore");
  out->metrics["core.frontier_nodes"] =
      explores == 0 ? 0.0 : reached / static_cast<double>(explores);
  for (const char* layer : {"net.loopback", "net.codec", "service.engine",
                            "landmark.recommend", "core.explore"}) {
    out->read_self_sum_us += SelfP50(self, layer, reads);
  }
}

void RoutedPass(const Dataset& d, Stack& stack,
                const std::vector<ReadOp>& sample, LayerResult* out) {
  DirectCalls direct(d);
  auto router = net::Client::Connect(BenchClientConfig(stack.port()));
  std::vector<net::Client> shards;
  for (size_t s = 0; s < stack.num_shards(); ++s) {
    auto c =
        net::Client::Connect(BenchClientConfig(stack.shard_server(s).port()));
    if (!c.ok()) break;
    shards.push_back(std::move(*c));
  }
  if (!router.ok() || shards.size() != stack.num_shards()) {
    out->notes.push_back("layer pass: cannot connect to the routed stack");
    return;
  }

  Tracer& tr = out->trace;
  uint64_t errors = 0;
  const size_t reads = sample.size();
  std::vector<uint32_t> route_span(reads), rpc_span(reads), engine_span(reads);
  std::vector<net::ResultReply> replies(reads);
  std::vector<net::PartialReply> partials(reads);
  std::vector<double> shard_rpc_us(reads, 0.0);
  auto home_of = [&](size_t r) { return stack.plan().ShardOf(sample[r].user); };

  double reached = 0.0;
  ForChunks(reads, [&](size_t begin, size_t end) {
    // coord: the routed round trips and the codec.
    for (size_t r = begin; r < end; ++r) {
      route_span[r] = tr.Time("coord.route", 0, r + 1, [&] {
        auto reply = router->RecommendEx(ToRequest(sample[r]));
        if (reply.ok()) {
          replies[r] = std::move(*reply);
        } else {
          ++errors;
        }
      });
    }
    for (size_t r = begin; r < end; ++r) {
      tr.Time("net.codec", route_span[r], r + 1, [&] {
        if (!CodecRoundTrip(ToRequest(sample[r]), replies[r])) ++errors;
      });
    }
    // The shard RPCs the router makes: RECOMMEND_PARTIAL to the home
    // shard, then one LANDMARK_FETCH per other shard homing a landmark met.
    for (size_t r = begin; r < end; ++r) {
      rpc_span[r] = tr.Time("coord.partial_rpc", route_span[r], r + 1, [&] {
        auto reply = shards[home_of(r)].RecommendPartial(ToRequest(sample[r]));
        if (reply.ok()) {
          partials[r] = std::move(*reply);
        } else {
          ++errors;
        }
      });
      shard_rpc_us[r] += tr.spans().back().micros();
    }
    for (size_t r = begin; r < end; ++r) {
      std::vector<std::vector<uint32_t>> want(stack.num_shards());
      for (const net::PartialRecord& rec : partials[r].records) {
        if ((rec.flags & net::kPartialFlagLandmark) != 0 &&
            (rec.flags & net::kPartialFlagInline) == 0) {
          want[stack.plan().ShardOf(rec.node)].push_back(rec.node);
        }
      }
      for (size_t s = 0; s < want.size(); ++s) {
        if (want[s].empty()) continue;
        tr.Time("coord.fetch_rpc", route_span[r], r + 1, [&] {
          if (!shards[s].FetchLandmarks(sample[r].topic, want[s]).ok()) {
            ++errors;
          }
        });
        shard_rpc_us[r] += tr.spans().back().micros();
      }
    }
    // service and core on the home shard, in-process.
    for (size_t r = begin; r < end; ++r) {
      engine_span[r] = tr.Time("service.engine", rpc_span[r], r + 1, [&] {
        service::QueryEngine& home = *stack.shard(home_of(r)).engine;
        if (!home.ExplorePartial(ToQuery(sample[r])).ok()) ++errors;
      });
    }
    for (size_t r = begin; r < end; ++r) {
      tr.Time("core.explore", engine_span[r], r + 1, [&] {
        reached += static_cast<double>(direct.Explore(sample[r]));
      });
    }
    // Not on the routed path (the router composes the lists itself); timed
    // for comparison with single-node serving.
    for (size_t r = begin; r < end; ++r) {
      tr.Time("landmark.recommend", 0, r + 1, [&] {
        if (!direct.approx->Recommend(ToQuery(sample[r])).ok()) ++errors;
      });
    }
  });

  if (errors != 0) {
    out->notes.push_back("layer pass: " + std::to_string(errors) +
                         " calls failed");
  }
  const auto dur = tr.DurationsByName();
  const auto self = tr.SelfByName();
  const double engine_us = P50Of(dur, "service.engine");
  const double shard_rpc = Median(shard_rpc_us);
  out->metrics["service.engine_us"] = engine_us;
  out->metrics["net.overhead_us"] = P50Of(dur, "coord.partial_rpc") - engine_us;
  out->metrics["net.codec_ns"] = P50Of(dur, "net.codec") * 1e3;
  out->metrics["landmark.recommend_us"] = P50Of(dur, "landmark.recommend");
  out->metrics["core.explore_us"] = P50Of(dur, "core.explore");
  out->metrics["core.frontier_nodes"] =
      reads == 0 ? 0.0 : reached / static_cast<double>(reads);
  out->metrics["coord.shard_rpc_us"] = shard_rpc;
  out->metrics["coord.self_us"] = P50Of(dur, "coord.route") - shard_rpc;
  for (const char* layer :
       {"coord.route", "net.codec", "coord.partial_rpc", "coord.fetch_rpc",
        "service.engine", "core.explore"}) {
    out->read_self_sum_us += SelfP50(self, layer, reads);
  }
}

void MutationPass(const Dataset& d, const std::vector<WriteBatch>& writes,
                  LayerResult* out) {
  const topics::SimilarityMatrix& sim = topics::TwitterSimilarity();
  landmark::LandmarkIndex index = *d.index;
  service::QueryEngine engine(d.graph(), *d.authority, sim,
                              BenchEngineConfig(&index));
  service::MutationApplier applier(d.graph(), *d.authority, engine);
  service::LandmarkRepairer repairer(index, engine, sim,
                                     applier.current_graph(),
                                     applier.current_authority());
  applier.SetRepairer(&repairer);
  engine.SetStaleProbe(repairer.MakeStaleProbe());
  repairer.Start();

  // Batches back to back while the repair thread works, as on a server
  // that takes writes faster than it repairs: an apply waits for the
  // repair holding the engine exclusively, if any.
  Tracer& tr = out->trace;
  uint64_t applied = 0;
  uint64_t records = 0;
  double stale = 0.0;
  const size_t n = std::min(kApplyBatches, writes.size());
  for (size_t b = 0; b < n; ++b) {
    std::vector<service::Mutation> batch;
    for (const WriteBatch::Record& r : writes[b].records) {
      service::Mutation m;
      m.op = writes[b].follow ? service::MutationOp::kFollow
                              : service::MutationOp::kUnfollow;
      m.src = r.src;
      m.dst = r.dst;
      m.labels = topics::TopicSet(r.labels);
      batch.push_back(m);
    }
    tr.Time("mutation.apply", 0, kBatchRequestBase + b,
            [&] { applied += applier.Apply(batch).applied; });
    records += batch.size();
    stale += static_cast<double>(repairer.stale_count());
  }
  tr.Time("repair.drain", 0, kBatchRequestBase + n,
          [&] { repairer.Quiesce(); });
  repairer.Stop();

  const auto dur = tr.DurationsByName();
  out->metrics["mutation.apply_p50_us"] = P50Of(dur, "mutation.apply");
  out->metrics["mutation.applied_ratio"] = Ratio{applied, records}.value();
  out->metrics["repair.stale_slots"] =
      n == 0 ? 0.0 : stale / static_cast<double>(n);
  out->metrics["repair.repaired_per_batch"] =
      Ratio{repairer.repairs_done(), n}.value();
  out->metrics["repair.drain_ms"] = P50Of(dur, "repair.drain") / 1e3;
}

}  // namespace

LayerResult MeasureLayers(const WorkloadSpec& spec, const Dataset& dataset,
                          Stack& stack, const std::vector<ReadOp>& sample,
                          size_t warmup, const std::vector<WriteBatch>& writes,
                          Tracer::Clock::time_point origin) {
  LayerResult out;
  out.trace = Tracer(origin);
  if (spec.routed) {
    RoutedPass(dataset, stack,
               std::vector<ReadOp>(
                   sample.begin() + std::min(warmup, sample.size()),
                   sample.end()),
               &out);
  } else {
    SingleNodePass(dataset, sample, warmup, &out);
  }
  // Wherever a single-node landmark engine serves, the write path
  // (apply + landmark repair) is measured on the workload's batch trace.
  if (spec.landmarks && !spec.routed) MutationPass(dataset, writes, &out);
  return out;
}

}  // namespace mbr::perfbench
