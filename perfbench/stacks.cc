#include "stacks.h"

#include <utility>

#include "datagen/twitter_generator.h"
#include "distributed/partition.h"
#include "landmark/selection.h"
#include "topics/similarity_matrix.h"
#include "util/timer.h"

namespace mbr::perfbench {

namespace {

constexpr uint32_t kNumNodes = 20000;
constexpr uint32_t kNumLandmarks = 32;
constexpr uint32_t kStoredTopN = 40;
constexpr uint32_t kNumShards = 2;
constexpr uint32_t kEngineWorkers = 2;
constexpr uint32_t kDispatchers = 2;
constexpr size_t kCacheCapacity = 4096;

constexpr WorkloadSpec kWorkloads[] = {
    {"zipf_landmark", ReadMix::kZipf, true, false, false},
    {"uniform_exact", ReadMix::kUniform, false, false, false},
    {"routed_zipf", ReadMix::kZipf, true, true, false},
    {"read_write", ReadMix::kZipf, true, false, true},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Dataset> BuildDataset(bool landmarks) {
  auto d = std::make_unique<Dataset>();
  datagen::TwitterConfig cfg;
  cfg.num_nodes = kNumNodes;
  util::WallTimer timer;
  d->data = datagen::GenerateTwitter(cfg);
  d->generate_s = timer.ElapsedSeconds();

  timer.Restart();
  d->authority = std::make_unique<core::AuthorityIndex>(d->graph());
  d->authority_s = timer.ElapsedSeconds();

  if (landmarks) {
    timer.Restart();
    landmark::SelectionConfig sel;
    sel.num_landmarks = kNumLandmarks;
    const std::vector<graph::NodeId> chosen =
        landmark::SelectLandmarks(d->graph(),
                                  landmark::SelectionStrategy::kOutDeg, sel)
            .landmarks;
    landmark::LandmarkIndexConfig icfg;
    icfg.top_n = kStoredTopN;
    d->index = std::make_unique<landmark::LandmarkIndex>(
        d->graph(), *d->authority, topics::TwitterSimilarity(), chosen, icfg);
    d->index_s = timer.ElapsedSeconds();
  }
  return d;
}

service::EngineConfig BenchEngineConfig(const landmark::LandmarkIndex* index) {
  service::EngineConfig ec;
  ec.num_threads = kEngineWorkers;
  ec.cache_capacity = kCacheCapacity;
  ec.landmarks = index;
  return ec;
}

net::ServerConfig BenchServerConfig() {
  net::ServerConfig sc;
  sc.dispatch_threads = kDispatchers;
  return sc;
}

net::ClientConfig BenchClientConfig(uint16_t port) {
  net::ClientConfig cc;
  cc.port = port;
  cc.request_timeout_ms = 5000;
  return cc;
}

util::Result<std::unique_ptr<Stack>> Stack::Start(const WorkloadSpec& spec,
                                                  const Dataset& dataset) {
  std::unique_ptr<Stack> st(new Stack());
  const graph::LabeledGraph& g = dataset.graph();
  const topics::SimilarityMatrix& sim = topics::TwitterSimilarity();

  if (spec.routed) {
    distributed::PartitionConfig pcfg;
    pcfg.num_partitions = kNumShards;
    st->plan_ = coord::ShardPlan(
        distributed::PartitionGraph(
            g, distributed::PartitionStrategy::kCommunity, pcfg),
        distributed::PartitionStrategy::kCommunity, /*halo_depth=*/1,
        static_cast<uint32_t>(g.num_topics()),
        std::vector<coord::ShardEndpoint>(kNumShards));
    for (uint32_t s = 0; s < kNumShards; ++s) {
      auto ctx = coord::BuildShardContext(g, sim, st->plan_, s,
                                          dataset.index.get(),
                                          BenchEngineConfig(nullptr));
      if (!ctx.ok()) return ctx.status();
      st->shards_.push_back(std::move(*ctx));
      coord::ShardContext& sc = *st->shards_.back();
      net::ServerConfig scfg = BenchServerConfig();
      scfg.shard_owned = &sc.owned;
      scfg.shard_index = sc.index.get();
      scfg.shard = s;
      scfg.shards_total = kNumShards;
      st->shard_servers_.push_back(
          std::make_unique<net::Server>(*sc.engine, scfg));
      MBR_RETURN_IF_ERROR(st->shard_servers_.back()->Start());
      st->plan_.SetEndpoint(s,
                            {"127.0.0.1", st->shard_servers_.back()->port()});
    }
    st->router_ =
        std::make_unique<coord::Router>(st->plan_, coord::RouterConfig{});
    MBR_RETURN_IF_ERROR(st->router_->Start());
    return st;
  }

  const landmark::LandmarkIndex* index = dataset.index.get();
  if (spec.writes) {
    // The repairer rewrites stored lists in place, so a mutable stack
    // serves from its own copy and the dataset stays as built.
    st->index_ = std::make_unique<landmark::LandmarkIndex>(*dataset.index);
    index = st->index_.get();
  }
  st->engine_ = std::make_unique<service::QueryEngine>(
      g, *dataset.authority, sim, BenchEngineConfig(index));
  net::ServerConfig scfg = BenchServerConfig();
  if (spec.writes) {
    // Made mutable exactly as `mbrec serve --mutable 1` does it.
    st->applier_ = std::make_unique<service::MutationApplier>(
        g, *dataset.authority, *st->engine_);
    st->repairer_ = std::make_unique<service::LandmarkRepairer>(
        *st->index_, *st->engine_, sim, st->applier_->current_graph(),
        st->applier_->current_authority());
    st->applier_->SetRepairer(st->repairer_.get());
    st->engine_->SetStaleProbe(st->repairer_->MakeStaleProbe());
    st->repairer_->Start();
    scfg.applier = st->applier_.get();
  }
  st->server_ = std::make_unique<net::Server>(*st->engine_, scfg);
  MBR_RETURN_IF_ERROR(st->server_->Start());
  return st;
}

Stack::~Stack() {
  if (router_ != nullptr) {
    router_->RequestStop();
    router_->Wait();
  }
  for (auto& s : shard_servers_) {
    s->RequestStop();
    s->Wait();
  }
  if (server_ != nullptr) {
    server_->RequestStop();
    server_->Wait();
  }
  if (repairer_ != nullptr) repairer_->Stop();
}

uint16_t Stack::port() const {
  return router_ != nullptr ? router_->port() : server_->port();
}

}  // namespace mbr::perfbench
