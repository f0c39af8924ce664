#include "dynamic/incremental_authority.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace mbr::dynamic {

IncrementalAuthority::IncrementalAuthority(const graph::LabeledGraph& g) {
  num_topics_ = g.num_topics();
  const graph::NodeId n = g.num_nodes();
  followers_on_topic_.assign(static_cast<size_t>(n) * num_topics_, 0);
  label_mass_.assign(n, 0);
  in_degree_.assign(n, 0);
  max_followers_.assign(num_topics_, 0);
  max_dirty_.assign(num_topics_, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    in_degree_[v] = g.InDegree(v);
    uint32_t* row = &followers_on_topic_[static_cast<size_t>(v) * num_topics_];
    for (topics::TopicSet labels : g.InEdgeLabels(v)) {
      for (topics::TopicId t : labels) {
        ++row[t];
        ++label_mass_[v];
      }
    }
    for (int t = 0; t < num_topics_; ++t) {
      max_followers_[t] = std::max(max_followers_[t], row[t]);
    }
  }
}

void IncrementalAuthority::OnEdgeAdded(graph::NodeId /*u*/, graph::NodeId v,
                                       topics::TopicSet labels) {
  uint32_t* row = &followers_on_topic_[static_cast<size_t>(v) * num_topics_];
  for (topics::TopicId t : labels) {
    MBR_CHECK(t < num_topics_);
    ++row[t];
    ++label_mass_[v];
    if (row[t] >= max_followers_[t]) {
      // Reaching (or passing) the stored bound proves it tight again.
      max_followers_[t] = row[t];
      if (max_dirty_[t]) {
        max_dirty_[t] = 0;
        --dirty_count_;
      }
    }
  }
  ++in_degree_[v];
}

void IncrementalAuthority::OnEdgeRemoved(graph::NodeId /*u*/,
                                         graph::NodeId v,
                                         topics::TopicSet labels) {
  uint32_t* row = &followers_on_topic_[static_cast<size_t>(v) * num_topics_];
  for (topics::TopicId t : labels) {
    MBR_CHECK(t < num_topics_);
    MBR_CHECK(row[t] > 0);
    const bool held_max = row[t] == max_followers_[t];
    --row[t];
    MBR_CHECK(label_mass_[v] > 0);
    --label_mass_[v];
    // Only losing a follower from a max-holding row can invalidate the
    // bound; RefreshDirtyMax()/RefreshMax() repairs it.
    if (held_max && !max_dirty_[t]) {
      max_dirty_[t] = 1;
      ++dirty_count_;
    }
  }
  MBR_CHECK(in_degree_[v] > 0);
  --in_degree_[v];
}

double IncrementalAuthority::Authority(graph::NodeId v,
                                       topics::TopicId t) const {
  MBR_DCHECK(t < num_topics_);
  uint32_t count =
      followers_on_topic_[static_cast<size_t>(v) * num_topics_ + t];
  if (count == 0 || label_mass_[v] == 0 || max_followers_[t] == 0) {
    return 0.0;
  }
  double local =
      static_cast<double>(count) / static_cast<double>(label_mass_[v]);
  double global = std::log(1.0 + count) /
                  std::log(1.0 + static_cast<double>(max_followers_[t]));
  return local * global;
}

void IncrementalAuthority::RefreshMax() {
  std::fill(max_followers_.begin(), max_followers_.end(), 0);
  const size_t n = label_mass_.size();
  for (size_t v = 0; v < n; ++v) {
    const uint32_t* row = &followers_on_topic_[v * num_topics_];
    for (int t = 0; t < num_topics_; ++t) {
      max_followers_[t] = std::max(max_followers_[t], row[t]);
    }
  }
  std::fill(max_dirty_.begin(), max_dirty_.end(), 0);
  dirty_count_ = 0;
}

int IncrementalAuthority::RefreshDirtyMax() {
  if (dirty_count_ == 0) return 0;
  const size_t n = label_mass_.size();
  int rescanned = 0;
  for (int t = 0; t < num_topics_; ++t) {
    if (!max_dirty_[t]) continue;
    uint32_t max = 0;
    for (size_t v = 0; v < n; ++v) {
      max = std::max(max, followers_on_topic_[v * num_topics_ + t]);
    }
    max_followers_[t] = max;
    max_dirty_[t] = 0;
    ++rescanned;
  }
  dirty_count_ = 0;
  return rescanned;
}

}  // namespace mbr::dynamic
