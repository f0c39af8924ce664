#ifndef MBR_LANDMARK_INDEX_H_
#define MBR_LANDMARK_INDEX_H_

// Landmark pre-processing (§4.1 / Algorithm 1).
//
// For every landmark λ the index stores, per topic t, the top-n
// recommendations σ(λ, v, t) as an inverted list — together with each
// recommended node's topological score topo_β(λ, v), which Proposition 4
// needs at query time:
//
//   σ̃_λ(u, v, t) = σ(u, λ, t) · topo_β(λ, v) + topo_{αβ}(u, λ) · σ(λ, v, t)
//
// §5.2: "We stored the landmark recommendations as inverted lists: for each
// landmark, we have a set of accounts recommended along with their
// recommendation score for each topic from T."

#include <span>
#include <string>
#include <vector>

#include "core/authority.h"
#include "core/params.h"
#include "core/scorer.h"
#include "graph/labeled_graph.h"
#include "topics/similarity_matrix.h"

namespace mbr::util::serde {
class Reader;
}  // namespace mbr::util::serde

namespace mbr::landmark {

// One stored recommendation of a landmark.
struct StoredRec {
  graph::NodeId node = graph::kInvalidNode;
  double sigma = 0.0;      // σ(λ, node, t)
  double topo_beta = 0.0;  // topo_β(λ, node)
};

struct LandmarkIndexConfig {
  // Recommendations stored per (landmark, topic): the paper evaluates
  // top-10 / top-100 / top-1000 (Table 6's L10 / L100 / L1000).
  uint32_t top_n = 100;
  // Scoring parameters; preprocessing runs Algorithm 1 to convergence, so
  // params.max_depth acts as a safety bound only.
  core::ScoreParams params;
  // Worker threads for the per-landmark Algorithm 1 runs (results are
  // bit-identical regardless): 0 = hardware concurrency, 1 = serial.
  uint32_t num_threads = 0;
};

class LandmarkIndex {
 public:
  // Runs Algorithm 1 (all topics) from every landmark. `landmarks` must be
  // distinct, valid node ids.
  LandmarkIndex(const graph::LabeledGraph& g,
                const core::AuthorityIndex& authority,
                const topics::SimilarityMatrix& sim,
                const std::vector<graph::NodeId>& landmarks,
                const LandmarkIndexConfig& config);

  bool IsLandmark(graph::NodeId v) const {
    return landmark_slot_[v] != kNoSlot;
  }
  const std::vector<graph::NodeId>& landmarks() const { return landmarks_; }
  const std::vector<bool>& landmark_mask() const { return mask_; }

  // Stored top-n list of landmark λ for topic t (ranked by σ desc).
  // Preconditions: IsLandmark(λ).
  const std::vector<StoredRec>& Recommendations(graph::NodeId lambda,
                                                topics::TopicId t) const;

  // A copy of this index keeping only the top `top_n` entries of every
  // stored list. Preconditions: top_n <= config().top_n. Lets experiments
  // compare stored-list sizes (Table 6's L10/L100/L1000) with a single
  // Algorithm 1 pre-processing pass.
  LandmarkIndex Truncated(uint32_t top_n) const;

  // One landmark's stored lists, indexed by topic.
  using Lists = std::vector<std::vector<StoredRec>>;

  // Re-runs Algorithm 1 for one landmark against `g` (typically the graph
  // after a batch of updates) and returns its lists — the unit of work of
  // service::LandmarkRepairer. Leaves this index as it is. Preconditions:
  // IsLandmark(lm); g has the node/topic counts this index was built with.
  Lists ComputeLists(graph::NodeId lm, const graph::LabeledGraph& g,
                     const core::AuthorityIndex& authority,
                     const topics::SimilarityMatrix& sim) const;

  // A copy of this index with `lm`'s stored lists replaced by `lists` (one
  // per topic, as ComputeLists returns them). Preconditions: IsLandmark(lm).
  LandmarkIndex WithLists(graph::NodeId lm, Lists lists) const;

  const LandmarkIndexConfig& config() const { return config_; }
  int num_topics() const { return num_topics_; }

  // Table 5's "comput. (s)" column: mean Algorithm 1 time per landmark.
  double build_seconds_per_landmark() const {
    return build_seconds_per_landmark_;
  }
  double build_seconds_total() const { return build_seconds_total_; }

  // Bytes used by the stored inverted lists (§5.4 notes ~1.4 MB per
  // landmark when storing top-1000 for all topics).
  size_t StorageBytes() const;

  // Binary persistence, so the expensive pre-processing can be done once
  // and shipped (e.g. to the workers of a distributed deployment). The
  // loaded index must be used with the same graph it was built on.
  //
  // The file is a util::serde container (versioned, CRC32 per section) that
  // persists the FULL ScoreParams — including tolerance, max_depth,
  // frontier_epsilon and the ablation variant — so a loaded index is never
  // silently mis-composed via Proposition 4 under default parameters.
  // Malformed or truncated files come back as a non-OK Status, never UB;
  // files in the retired unversioned format fail with a clear
  // InvalidArgument asking for a rebuild.
  util::Status SaveTo(const std::string& path) const;
  static util::Result<LandmarkIndex> LoadFrom(const std::string& path,
                                              graph::NodeId num_nodes);

  // In-memory variants (corruption tests, shipping an index over RPC).
  std::vector<uint8_t> Serialize() const;
  static util::Result<LandmarkIndex> LoadFromBuffer(
      std::span<const uint8_t> bytes, graph::NodeId num_nodes);

 private:
  static constexpr uint32_t kNoSlot = 0xffffffff;

  LandmarkIndex() = default;  // for Truncated()

  // Decodes a validated serde container (shared by LoadFrom/LoadFromBuffer).
  static util::Result<LandmarkIndex> FromReader(util::serde::Reader reader,
                                                graph::NodeId num_nodes);

  LandmarkIndexConfig config_;
  int num_topics_ = 0;
  std::vector<graph::NodeId> landmarks_;
  std::vector<uint32_t> landmark_slot_;  // node -> index into landmarks_
  std::vector<bool> mask_;
  // recs_[slot * num_topics + t] = stored list.
  std::vector<std::vector<StoredRec>> recs_;
  double build_seconds_per_landmark_ = 0.0;
  double build_seconds_total_ = 0.0;
};

}  // namespace mbr::landmark

#endif  // MBR_LANDMARK_INDEX_H_
