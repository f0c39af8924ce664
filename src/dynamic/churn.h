#ifndef MBR_DYNAMIC_CHURN_H_
#define MBR_DYNAMIC_CHURN_H_

// Follow-graph churn workloads for the §6 dynamicity study: unfollows
// (random live edges, biased towards low-interest ones) and new follows
// (popularity-weighted targets sharing a topic with the follower — the same
// mechanisms the Twitter generator uses, so churned graphs stay
// distributionally faithful).

#include <cstdint>
#include <vector>

#include "dynamic/delta_graph.h"
#include "dynamic/incremental_authority.h"
#include "util/rng.h"

namespace mbr::dynamic {

struct ChurnConfig {
  // Fraction of the current edge count to remove and to add per round
  // (e.g. 0.05 -> 5% unfollows + 5% new follows).
  double unfollow_fraction = 0.05;
  double follow_fraction = 0.05;
};

// One applied edge change. A removal carries the labels the edge had.
struct EdgeChange {
  graph::NodeId src = 0;
  graph::NodeId dst = 0;
  topics::TopicSet labels;

  bool operator==(const EdgeChange&) const = default;
};

// The changes one churn round applied, each list in application order;
// every removal was applied before every addition.
struct ChurnRound {
  std::vector<EdgeChange> removed;
  std::vector<EdgeChange> added;
};

// Applies one churn round to `overlay` and (if non-null) keeps `authority`
// in sync edge by edge. Returns what was done, so a caller can replay the
// round elsewhere (e.g. as a service::MutationApplier batch of UNFOLLOWs
// then FOLLOWs).
ChurnRound ApplyChurnRound(DeltaGraph* overlay,
                           IncrementalAuthority* authority,
                           const ChurnConfig& config, util::Rng* rng);

}  // namespace mbr::dynamic

#endif  // MBR_DYNAMIC_CHURN_H_
