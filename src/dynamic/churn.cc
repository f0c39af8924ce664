#include "dynamic/churn.h"

#include "util/logging.h"

namespace mbr::dynamic {

namespace {

using graph::NodeId;
using topics::TopicId;
using topics::TopicSet;

TopicId RandomTopicOf(TopicSet s, util::Rng* rng) {
  MBR_CHECK(!s.empty());
  int pick = static_cast<int>(rng->UniformU64(s.size()));
  for (TopicId t : s) {
    if (pick-- == 0) return t;
  }
  return 0;
}

}  // namespace

ChurnRound ApplyChurnRound(DeltaGraph* overlay,
                           IncrementalAuthority* authority,
                           const ChurnConfig& config, util::Rng* rng) {
  MBR_CHECK(overlay != nullptr);
  const graph::LabeledGraph& base = overlay->base();
  const NodeId n = overlay->num_nodes();
  ChurnRound round;

  uint64_t to_remove = static_cast<uint64_t>(config.unfollow_fraction *
                                             static_cast<double>(overlay->num_edges()));
  uint64_t to_add = static_cast<uint64_t>(config.follow_fraction *
                                          static_cast<double>(overlay->num_edges()));
  round.removed.reserve(to_remove);
  round.added.reserve(to_add);

  // ---- Unfollows: sample random live edges via random (node, position)
  // probes on the base graph (the overlay additions are a small minority).
  uint64_t guard = 0;
  while (round.removed.size() < to_remove && guard < to_remove * 50 + 100) {
    ++guard;
    NodeId u = static_cast<NodeId>(rng->UniformU64(n));
    auto nbrs = base.OutNeighbors(u);
    if (nbrs.empty()) continue;
    NodeId v = nbrs[rng->UniformU64(nbrs.size())];
    TopicSet labels = overlay->EdgeLabels(u, v);
    if (!overlay->RemoveEdge(u, v)) continue;
    if (authority != nullptr) authority->OnEdgeRemoved(u, v, labels);
    round.removed.push_back({u, v, labels});
  }

  // ---- New follows: popularity-weighted target among the follower's
  // topical peers (sample two random nodes publishing the topic, keep the
  // more followed).
  guard = 0;
  while (round.added.size() < to_add && guard < to_add * 50 + 100) {
    ++guard;
    NodeId u = static_cast<NodeId>(rng->UniformU64(n));
    TopicSet interests = base.NodeLabels(u);
    if (interests.empty()) continue;
    TopicId t = RandomTopicOf(interests, rng);
    NodeId a = static_cast<NodeId>(rng->UniformU64(n));
    NodeId b = static_cast<NodeId>(rng->UniformU64(n));
    NodeId v = overlay->InDegree(a) >= overlay->InDegree(b) ? a : b;
    if (v == u) continue;
    TopicSet publisher = base.NodeLabels(v);
    TopicSet label = interests.Intersect(publisher);
    if (label.empty()) {
      if (publisher.empty()) continue;
      label.Add(RandomTopicOf(publisher, rng));
    } else if (!label.Contains(t) && publisher.Contains(t)) {
      label.Add(t);
    }
    if (!overlay->AddEdge(u, v, label)) continue;
    if (authority != nullptr) authority->OnEdgeAdded(u, v, label);
    round.added.push_back({u, v, label});
  }
  return round;
}

}  // namespace mbr::dynamic
