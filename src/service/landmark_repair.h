#ifndef MBR_SERVICE_LANDMARK_REPAIR_H_
#define MBR_SERVICE_LANDMARK_REPAIR_H_

// Lazy landmark-list repair under live graph churn — the serving-side
// answer to the paper's §6 "graph dynamicity may impact the scores stored
// by the landmarks", following the valkey-search HNSW repair pattern
// (SNIPPETS.md Snippet 3): version counters mark work stale, queries
// detect staleness cheaply, and an asynchronous thread repairs lazily
// instead of rebuilding the whole index.
//
// State machine, per landmark slot (version counters, monotone u64):
//
//   marked_seq[s]   — bumped (to a fresh global sequence number) when a
//                     mutation batch touches a vertex that appears in
//                     slot s's stored lists, or is the landmark itself;
//   repaired_seq[s] — set to the marked_seq observed at the start of a
//                     repair, once that repair completes.
//
//   slot s is STALE  iff  marked_seq[s] > repaired_seq[s].
//
// A repair that races with a new marking leaves the slot stale (its
// marked_seq moved past the sequence the repair observed) — re-repair, not
// lost updates. The repair unit is LandmarkIndex::RefreshLandmark (re-run
// Algorithm 1 for one landmark), executed under QueryEngine::RunExclusive
// so queries never observe a half-written stored list; RunExclusive also
// bumps the graph epoch, keeping cached rankings from before the repair
// unreachable.
//
// Stale *detection at query time* is one atomic load: the engine's stale
// probe (install via MakeStaleProbe) increments
// mbr_repair_stale_reads_total whenever a query is scored while any slot
// is stale — the serving-visible measure of repair lag that the churn
// drift bench correlates with recall/Kendall-tau.
//
// Mode kTouched repairs only slots whose stored lists can have changed;
// kAll marks every slot on every batch (an upper bound used by the
// differential oracle: after Quiesce() the index is byte-identical to a
// fresh build, because RefreshLandmark is deterministic).
//
// Schedule (the paper's §6 "updating strategies"): the next repair takes
// the stale slot with the smallest repaired_seq — the oldest stored lists
// — ties broken by slot id. While churn touches every slot each batch this
// is round-robin over the landmarks; a slot nobody touched is never
// repaired. RepairStale(budget) runs that order under a per-round budget
// on the calling thread, which is how bench/ext_dynamic_updates runs the
// §6 refresh study on the serving path.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {

struct RepairConfig {
  enum class Mode { kTouched, kAll };
  Mode mode = Mode::kTouched;
};

class LandmarkRepairer {
 public:
  // `index` is the live index the engine serves from (repaired in place);
  // `graph`/`authority` are the generation it currently matches. All
  // references must outlive the repairer; destroy (or Stop) the repairer
  // before the engine and index.
  LandmarkRepairer(landmark::LandmarkIndex& index, QueryEngine& engine,
                   const topics::SimilarityMatrix& sim,
                   std::shared_ptr<const graph::LabeledGraph> graph,
                   std::shared_ptr<const core::AuthorityIndex> authority,
                   const RepairConfig& config = {});
  ~LandmarkRepairer();

  LandmarkRepairer(const LandmarkRepairer&) = delete;
  LandmarkRepairer& operator=(const LandmarkRepairer&) = delete;

  // Starts / stops the background repair thread. Without Start(),
  // RepairStale() and Quiesce() repair synchronously on the calling thread
  // (deterministic single-threaded tests and benches).
  void Start();
  void Stop();

  // Called by the MutationApplier after every applied batch: adopt the
  // new generation and mark affected slots stale. Thread-safe.
  void OnBatchApplied(std::shared_ptr<const graph::LabeledGraph> graph,
                      std::shared_ptr<const core::AuthorityIndex> authority,
                      std::span<const graph::NodeId> touched);

  // Repairs up to `budget` stale slots, oldest lists first, on the
  // calling thread and returns their landmarks in repair order. Only
  // without Start(): the repair thread owns the schedule once running.
  std::vector<graph::NodeId> RepairStale(size_t budget);

  // Blocks until no slot is stale and no repair is in flight. With the
  // thread running this waits; otherwise it repairs inline.
  void Quiesce();

  size_t stale_count() const {
    return stale_count_.load(std::memory_order_relaxed);
  }
  uint64_t repairs_done() const;

  // Probe for QueryEngine::SetStaleProbe: counts queries scored while any
  // landmark list is stale and reports that staleness to the engine, which
  // downgrades approx-tier replies to kStale until the repairs land.
  std::function<bool()> MakeStaleProbe();

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  void MarkSlotLocked(uint32_t slot);
  void RecomputeStaleLocked();
  // Rebuilds the node -> slots reverse index entry set for `slot` from its
  // current stored lists.
  void ReindexSlotLocked(uint32_t slot);
  // Repairs the stale slot with the oldest lists (smallest repaired_seq,
  // then lowest slot id) and returns it, or kNoSlot if none was stale.
  // Caller must hold `lock` (it is released around the refresh).
  uint32_t RepairOneLocked(std::unique_lock<std::mutex>& lock);
  std::vector<graph::NodeId> RepairStaleLocked(
      size_t budget, std::unique_lock<std::mutex>& lock);
  void RepairLoop();

  landmark::LandmarkIndex* index_;
  QueryEngine* engine_;
  const topics::SimilarityMatrix* sim_;
  RepairConfig config_;

  obs::Counter* stale_marked_ = nullptr;
  obs::Counter* repaired_ = nullptr;
  obs::Counter* stale_reads_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<const graph::LabeledGraph> graph_;
  std::shared_ptr<const core::AuthorityIndex> authority_;
  uint64_t seq_ = 0;
  std::vector<uint64_t> marked_seq_;
  std::vector<uint64_t> repaired_seq_;
  // node -> slots whose stored lists contain the node (sorted, unique) —
  // how a touched vertex finds the landmarks it can invalidate.
  std::vector<std::vector<uint32_t>> node_to_slots_;
  // members_[slot]: nodes currently indexed for the slot (to unindex on
  // refresh).
  std::vector<std::vector<graph::NodeId>> members_;
  bool repair_in_flight_ = false;
  bool stop_ = false;
  bool running_ = false;
  uint64_t repairs_done_ = 0;

  std::atomic<size_t> stale_count_{0};
  std::thread thread_;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_LANDMARK_REPAIR_H_
