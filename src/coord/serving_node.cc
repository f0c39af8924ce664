#include "coord/serving_node.h"

#include <string>
#include <utility>

#include "core/authority.h"
#include "obs/span.h"

namespace mbr::coord {

util::Result<std::unique_ptr<ServingNode>> ServingNode::Build(
    NodeConfig config) {
  if (config.index.has_value() &&
      config.index->num_topics() != config.graph.num_topics()) {
    return util::Status::InvalidArgument(
        "landmark index has " + std::to_string(config.index->num_topics()) +
        " topics, graph has " + std::to_string(config.graph.num_topics()));
  }
  if (config.plan != nullptr && config.mutable_serving) {
    return util::Status::InvalidArgument(
        "mutations are not supported with a shard plan (shard serving is "
        "read-only)");
  }
  // Proposition 4 composes query-time and stored scores, so serving under
  // other parameters than the stored lists were built with would silently
  // skew every approximate result.
  if (config.index.has_value()) {
    config.engine.params = config.index->config().params;
  }

  std::unique_ptr<ServingNode> node(new ServingNode());
  if (config.plan != nullptr) {
    auto ctx = BuildShardContext(
        config.graph, *config.sim, *config.plan, config.shard,
        config.index.has_value() ? &*config.index : nullptr, config.engine);
    if (!ctx.ok()) return ctx.status();
    node->state_ = std::move(*ctx);
    config.server.shard_owned = &node->state_->owned;
    config.server.shard_index = node->state_->index.get();
    config.server.shard = config.shard;
    config.server.shards_total = config.plan->num_shards();
  } else {
    node->state_ = std::make_unique<ShardContext>();
    ShardContext& s = *node->state_;
    s.subgraph =
        std::make_unique<graph::LabeledGraph>(std::move(config.graph));
    s.authority = std::make_unique<core::AuthorityIndex>(*s.subgraph);
    if (config.index.has_value()) {
      s.index = std::make_unique<landmark::LandmarkIndex>(
          std::move(*config.index));
    }
    config.engine.landmarks = s.index.get();
    s.engine = std::make_unique<service::QueryEngine>(
        *s.subgraph, *s.authority, *config.sim, config.engine);
  }

  ShardContext& s = *node->state_;
  if (config.mutable_serving) {
    node->applier_ = std::make_unique<service::MutationApplier>(
        *s.subgraph, *s.authority, *s.engine, config.mutation);
    if (s.index != nullptr) {
      node->repairer_ = std::make_unique<service::LandmarkRepairer>(
          *s.index, *s.engine, *config.sim, node->applier_->current_graph(),
          node->applier_->current_authority());
      node->applier_->SetRepairer(node->repairer_.get());
      s.engine->SetStaleProbe(node->repairer_->MakeStaleProbe());
    }
  }
  config.server.applier = node->applier_.get();
  node->server_config_ = config.server;
  return node;
}

ServingNode::~ServingNode() {
  server_.reset();    // drains; it holds the applier
  repairer_.reset();  // joins the repair thread before the engine and index
  applier_.reset();
}

util::Status ServingNode::Start() {
  // The stage series appear on first use of their span sites; register
  // the request-path stages up front so a scrape of an idle node already
  // shows the whole family.
  for (const char* stage : {"scorer.explore", "landmark.bfs",
                            "landmark.combine", "engine.execute"}) {
    obs::StageHistogram(stage);
  }
  if (repairer_ != nullptr) repairer_->Start();
  server_ = std::make_unique<net::Server>(*state_->engine, server_config_);
  return server_->Start();
}

}  // namespace mbr::coord
