#ifndef MBR_DYNAMIC_DELTA_GRAPH_H_
#define MBR_DYNAMIC_DELTA_GRAPH_H_

// Dynamic follow-graph overlay — the substrate for the paper's §6 future
// work ("many following links have a short lifespan. This graph dynamicity
// may impact the scores stored by the landmarks").
//
// A DeltaGraph layers edge insertions and deletions over an immutable base
// LabeledGraph: reads see base ∪ added ∖ removed. Mutations are O(log d);
// Materialize() compacts everything into a fresh CSR graph when a batch of
// churn has been applied (the paper's "re-computed periodically" model).

#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/labeled_graph.h"
#include "topics/topic.h"

namespace mbr::dynamic {

class DeltaGraph {
 public:
  // `base` must outlive the overlay.
  explicit DeltaGraph(const graph::LabeledGraph* base);

  const graph::LabeledGraph& base() const { return *base_; }
  graph::NodeId num_nodes() const { return base_->num_nodes(); }
  uint64_t num_edges() const { return num_edges_; }

  // Adds u -> v. Returns false (no-op) for self-loops or already-present
  // edges. Re-adding a previously removed base edge is allowed (possibly
  // with new labels).
  bool AddEdge(graph::NodeId u, graph::NodeId v, topics::TopicSet labels);

  // Removes u -> v (from the base or the overlay). Returns false if the
  // edge is not currently present.
  bool RemoveEdge(graph::NodeId u, graph::NodeId v);

  // Replaces the labels of the live edge u -> v (the wire RELABEL op).
  // Returns false if the edge is not currently present. Implemented as
  // RemoveEdge + AddEdge so every degree counter stays consistent.
  bool RelabelEdge(graph::NodeId u, graph::NodeId v, topics::TopicSet labels);

  bool HasEdge(graph::NodeId u, graph::NodeId v) const;

  // Labels of the live edge u -> v (empty set if absent).
  topics::TopicSet EdgeLabels(graph::NodeId u, graph::NodeId v) const;

  // Current out-degree / in-degree of a node.
  uint32_t OutDegree(graph::NodeId u) const;
  uint32_t InDegree(graph::NodeId v) const;

  // Visits every live out-neighbor of u: fn(v, labels).
  template <typename Fn>
  void ForEachOutNeighbor(graph::NodeId u, Fn&& fn) const {
    auto nbrs = base_->OutNeighbors(u);
    auto labs = base_->OutEdgeLabels(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (!IsRemoved(u, nbrs[i])) fn(nbrs[i], labs[i]);
    }
    for (const auto& [v, labels] : added_[u]) fn(v, labels);
  }

  // Compacts base + overlay into an immutable graph (node labels are
  // carried over from the base).
  graph::LabeledGraph Materialize() const;

  // O(Δ) materialization (DESIGN.md §6.9): a new generation built from
  // `prev` by replacing only the adjacency rows of `touched` nodes
  // (duplicates/unsorted ids are fine) and block-copying everything else.
  // Byte-identical to Materialize() provided `prev` already reflects every
  // mutation applied to this overlay except those touching `touched` —
  // i.e. prev is the previous generation and `touched` covers the src and
  // dst of every edge change applied since it was materialized.
  graph::LabeledGraph MaterializeFrom(
      const graph::LabeledGraph& prev,
      std::span<const graph::NodeId> touched) const;

 private:
  static uint64_t Key(graph::NodeId u, graph::NodeId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  bool IsRemoved(graph::NodeId u, graph::NodeId v) const {
    return removed_.count(Key(u, v)) > 0;
  }
  bool IsAdded(graph::NodeId u, graph::NodeId v) const;

  const graph::LabeledGraph* base_;
  uint64_t num_edges_;
  // Per-node overlay adjacency (sorted by dst) and a global tombstone set.
  std::vector<std::vector<std::pair<graph::NodeId, topics::TopicSet>>> added_;
  // Reverse overlay: added_in_[v] lists (src, labels) of overlay edges into
  // v, sorted by src — the in-row counterpart MaterializeFrom merges
  // against the base in-adjacency.
  std::vector<std::vector<std::pair<graph::NodeId, topics::TopicSet>>>
      added_in_;
  std::unordered_set<uint64_t> removed_;
  std::vector<uint32_t> in_degree_delta_pos_;  // added in-edges per node
  std::vector<uint32_t> in_degree_delta_neg_;  // removed in-edges per node
};

}  // namespace mbr::dynamic

#endif  // MBR_DYNAMIC_DELTA_GRAPH_H_
