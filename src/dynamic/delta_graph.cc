#include "dynamic/delta_graph.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace mbr::dynamic {

namespace {
using graph::NodeId;
using topics::TopicSet;

using OverlayList = std::vector<std::pair<NodeId, TopicSet>>;

OverlayList::const_iterator FindIn(const OverlayList& list, NodeId v) {
  auto it = std::lower_bound(
      list.begin(), list.end(), v,
      [](const std::pair<NodeId, TopicSet>& e, NodeId n) {
        return e.first < n;
      });
  if (it != list.end() && it->first == v) return it;
  return list.end();
}

}  // namespace

DeltaGraph::DeltaGraph(const graph::LabeledGraph* base)
    : base_(base),
      num_edges_(base->num_edges()),
      added_(base->num_nodes()),
      added_in_(base->num_nodes()),
      in_degree_delta_pos_(base->num_nodes(), 0),
      in_degree_delta_neg_(base->num_nodes(), 0) {}

bool DeltaGraph::IsAdded(NodeId u, NodeId v) const {
  return FindIn(added_[u], v) != added_[u].end();
}

bool DeltaGraph::AddEdge(NodeId u, NodeId v, TopicSet labels) {
  MBR_CHECK(u < num_nodes() && v < num_nodes());
  if (u == v) return false;
  if (HasEdge(u, v)) return false;
  // Re-adding a previously removed base edge keeps the tombstone and
  // stores the edge (with its new labels) in the overlay — the overlay
  // entry shadows the base edge on every read path.
  auto& list = added_[u];
  auto it = std::lower_bound(
      list.begin(), list.end(), v,
      [](const std::pair<NodeId, TopicSet>& e, NodeId n) {
        return e.first < n;
      });
  list.insert(it, {v, labels});
  auto& rlist = added_in_[v];
  auto rit = std::lower_bound(
      rlist.begin(), rlist.end(), u,
      [](const std::pair<NodeId, TopicSet>& e, NodeId n) {
        return e.first < n;
      });
  rlist.insert(rit, {u, labels});
  ++num_edges_;
  ++in_degree_delta_pos_[v];
  return true;
}

bool DeltaGraph::RemoveEdge(NodeId u, NodeId v) {
  MBR_CHECK(u < num_nodes() && v < num_nodes());
  // Overlay edge?
  auto& list = added_[u];
  auto it = FindIn(list, v);
  if (it != list.end()) {
    list.erase(list.begin() + (it - list.cbegin()));
    auto& rlist = added_in_[v];
    auto rit = FindIn(rlist, u);
    MBR_CHECK(rit != rlist.end());
    rlist.erase(rlist.begin() + (rit - rlist.cbegin()));
    --num_edges_;
    MBR_CHECK(in_degree_delta_pos_[v] > 0);
    --in_degree_delta_pos_[v];
    return true;
  }
  // Base edge not yet tombstoned?
  if (base_->HasEdge(u, v) && !IsRemoved(u, v)) {
    removed_.insert(Key(u, v));
    --num_edges_;
    ++in_degree_delta_neg_[v];
    return true;
  }
  return false;
}

bool DeltaGraph::RelabelEdge(NodeId u, NodeId v, TopicSet labels) {
  MBR_CHECK(u < num_nodes() && v < num_nodes());
  if (!HasEdge(u, v)) return false;
  // Remove + re-add: all degree counters and tombstones evolve exactly as
  // for the two primitive mutations.
  MBR_CHECK(RemoveEdge(u, v));
  MBR_CHECK(AddEdge(u, v, labels));
  return true;
}

bool DeltaGraph::HasEdge(NodeId u, NodeId v) const {
  if (IsAdded(u, v)) return true;
  return base_->HasEdge(u, v) && !IsRemoved(u, v);
}

TopicSet DeltaGraph::EdgeLabels(NodeId u, NodeId v) const {
  auto it = FindIn(added_[u], v);
  if (it != added_[u].end()) return it->second;
  if (base_->HasEdge(u, v) && !IsRemoved(u, v)) {
    return base_->EdgeLabels(u, v);
  }
  return TopicSet();
}

uint32_t DeltaGraph::OutDegree(NodeId u) const {
  uint32_t removed_here = 0;
  for (NodeId v : base_->OutNeighbors(u)) {
    if (IsRemoved(u, v)) ++removed_here;
  }
  return base_->OutDegree(u) - removed_here +
         static_cast<uint32_t>(added_[u].size());
}

uint32_t DeltaGraph::InDegree(NodeId v) const {
  return base_->InDegree(v) + in_degree_delta_pos_[v] -
         in_degree_delta_neg_[v];
}

namespace {

// Merges a base CSR row (minus tombstoned ids) with a sorted overlay list
// into one row sorted by neighbor id. The two inputs are disjoint: an
// overlay entry for a live base edge is impossible (AddEdge rejects
// present edges), and a re-added base edge is tombstoned in the base row.
void MergeRow(std::span<const NodeId> base_ids,
              std::span<const TopicSet> base_labs, const OverlayList& overlay,
              const std::function<bool(NodeId)>& is_removed,
              graph::LabeledGraph::RowPatch* out) {
  out->nbrs.reserve(base_ids.size() + overlay.size());
  out->labs.reserve(base_ids.size() + overlay.size());
  size_t i = 0, j = 0;
  while (i < base_ids.size() || j < overlay.size()) {
    if (j == overlay.size() ||
        (i < base_ids.size() && base_ids[i] < overlay[j].first)) {
      if (!is_removed(base_ids[i])) {
        out->nbrs.push_back(base_ids[i]);
        out->labs.push_back(base_labs[i]);
      }
      ++i;
    } else {
      out->nbrs.push_back(overlay[j].first);
      out->labs.push_back(overlay[j].second);
      ++j;
    }
  }
}

}  // namespace

graph::LabeledGraph DeltaGraph::MaterializeFrom(
    const graph::LabeledGraph& prev,
    std::span<const graph::NodeId> touched) const {
  MBR_CHECK(prev.num_nodes() == num_nodes());
  std::vector<NodeId> nodes(touched.begin(), touched.end());
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::vector<graph::LabeledGraph::RowPatch> out_patches(nodes.size());
  std::vector<graph::LabeledGraph::RowPatch> in_patches(nodes.size());
  for (size_t k = 0; k < nodes.size(); ++k) {
    const NodeId u = nodes[k];
    MBR_CHECK(u < num_nodes());
    out_patches[k].node = u;
    MergeRow(base_->OutNeighbors(u), base_->OutEdgeLabels(u), added_[u],
             [&](NodeId v) { return IsRemoved(u, v); }, &out_patches[k]);
    in_patches[k].node = u;
    MergeRow(base_->InNeighbors(u), base_->InEdgeLabels(u), added_in_[u],
             [&](NodeId w) { return IsRemoved(w, u); }, &in_patches[k]);
  }
  return graph::LabeledGraph::PatchAdjacency(prev, out_patches, in_patches);
}

graph::LabeledGraph DeltaGraph::Materialize() const {
  graph::GraphBuilder builder(num_nodes(), base_->num_topics());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    builder.SetNodeLabels(u, base_->NodeLabels(u));
    ForEachOutNeighbor(u, [&](NodeId v, TopicSet labels) {
      builder.AddEdge(u, v, labels);
    });
  }
  return std::move(builder).Build();
}

}  // namespace mbr::dynamic
