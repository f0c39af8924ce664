#ifndef MBR_DYNAMIC_INCREMENTAL_AUTHORITY_H_
#define MBR_DYNAMIC_INCREMENTAL_AUTHORITY_H_

// Incrementally-maintained topical authority (§3.2 + §6).
//
// The paper observes that |Γu| and |Γu(t)| "can be computed on local
// information of each user, without graph exploration", while the global
// max_v |Γv(t)| "may be costly ... we can assume this value is stored (and
// re-computed periodically)". This class implements exactly that contract:
// O(|labels|) updates per edge change, exact increase-side max maintenance,
// and an explicit RefreshMax() for the periodic recomputation (after
// removals the stored max is an upper bound, which the log dampens — the
// paper's argument).

#include <cstdint>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "topics/topic.h"

namespace mbr::dynamic {

class IncrementalAuthority {
 public:
  // Seeds the counters from the base graph.
  explicit IncrementalAuthority(const graph::LabeledGraph& g);

  // u started following v with interest `labels`.
  void OnEdgeAdded(graph::NodeId u, graph::NodeId v, topics::TopicSet labels);
  // u unfollowed v; `labels` must be the labels the edge carried.
  void OnEdgeRemoved(graph::NodeId u, graph::NodeId v,
                     topics::TopicSet labels);

  // auth(v, t) under the current counters and the (possibly slightly
  // stale) per-topic maxima.
  double Authority(graph::NodeId v, topics::TopicId t) const;

  uint32_t FollowersOnTopic(graph::NodeId v, topics::TopicId t) const {
    return followers_on_topic_[static_cast<size_t>(v) * num_topics_ + t];
  }
  uint32_t MaxFollowersOnTopic(topics::TopicId t) const {
    return max_followers_[t];
  }

  // Recomputes the per-topic maxima exactly (the paper's periodic refresh).
  void RefreshMax();

  // Targeted exact repair: rescans only the *dirty* topics — those where a
  // removal hit a row that held the stored max, so the bound may now
  // overestimate (adds keep the max exact). Afterwards every stored max is
  // exact again, at O(n) per dirty topic instead of RefreshMax()'s O(n·T).
  // Returns the number of topics rescanned.
  int RefreshDirtyMax();

  // Topics whose stored max is currently an unverified upper bound. 0
  // means every max is exact and a snapshot taken now is byte-identical
  // to a from-scratch AuthorityIndex.
  int dirty_topic_count() const { return dirty_count_; }

  // Borrowed view of the counters for core::AuthorityIndex's incremental
  // snapshot ctor. Valid until the next mutation of this object.
  core::AuthorityCounters Counters() const {
    return core::AuthorityCounters{
        num_topics_, followers_on_topic_, in_degree_, max_followers_};
  }

  int num_topics() const { return num_topics_; }

 private:
  int num_topics_ = 0;
  std::vector<uint32_t> followers_on_topic_;  // n x T
  std::vector<uint64_t> label_mass_;          // Σ_t |Γv(t)| per node
  std::vector<uint32_t> in_degree_;           // |Γv| per node
  std::vector<uint32_t> max_followers_;       // per topic (upper bound)
  std::vector<uint8_t> max_dirty_;            // per topic: bound unverified
  int dirty_count_ = 0;
};

}  // namespace mbr::dynamic

#endif  // MBR_DYNAMIC_INCREMENTAL_AUTHORITY_H_
