#ifndef MBR_SERVICE_LANDMARK_REPAIR_H_
#define MBR_SERVICE_LANDMARK_REPAIR_H_

// Lazy landmark-list repair under live graph churn — the serving-side
// answer to the paper's §6 "graph dynamicity may impact the scores stored
// by the landmarks", following the valkey-search HNSW repair pattern
// (SNIPPETS.md Snippet 3): version counters mark work stale, queries
// detect staleness cheaply, and an asynchronous thread repairs lazily
// instead of rebuilding the whole index.
//
// Staleness rule: every applied batch marks every landmark slot; a batch
// with no applied record marks nothing. A FOLLOW u->v adds paths through
// u and moves v's authority anywhere in a landmark's exploration, and on
// the graphs served here each exploration reaches nearly every node, so a
// rule that tried to spare slots would mark them all anyway (DESIGN.md
// §6.5). The bookkeeping is version counters (monotone u64):
//
//   batches_        — applied batches marked so far;
//   repaired_seq[s] — the batch count of the generation slot s's last
//                     repair ran on.
//
//   slot s is STALE  iff  repaired_seq[s] < batches_.
//
// Mark before publish: the MutationApplier calls MarkAllStale() before
// QueryEngine::Rebind() publishes a batch's generation and
// OnBatchApplied() after it, so no reply scored on the new generation is
// stamped kApprox from lists computed on an older one. A repair credits
// only the batch count of the generation it ran on, so one that raced a
// newer batch leaves its slot stale (re-repair, not lost updates), and no
// repair starts while a marked batch's generation is still being
// published. The repair unit is LandmarkIndex::RefreshLandmark (re-run
// Algorithm 1 for one landmark), executed under QueryEngine::RunExclusive
// so queries never observe a half-written stored list; RunExclusive also
// bumps the graph epoch, keeping cached rankings from before the repair
// unreachable. Because RefreshLandmark is deterministic, after Quiesce()
// the index is byte-identical to a fresh build on the live generation.
//
// Stale *detection at query time* is one atomic load: the engine's stale
// probe (install via MakeStaleProbe) increments
// mbr_repair_stale_reads_total whenever a query is scored while any slot
// is stale — the serving-visible measure of repair lag that the churn
// drift bench correlates with recall/Kendall-tau.
//
// Schedule (the paper's §6 "updating strategies"): the next repair takes
// the stale slot with the smallest repaired_seq — the oldest stored lists
// — ties broken by slot id. Since every batch marks every slot this is
// round-robin over the landmarks. RepairStale(budget) runs that order
// under a per-round budget on the calling thread, which is how
// bench/ext_dynamic_updates runs the §6 refresh study on the serving path.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {

class LandmarkRepairer {
 public:
  // `index` is the live index the engine serves from (repaired in place);
  // `graph`/`authority` are the generation it currently matches. All
  // references must outlive the repairer; destroy (or Stop) the repairer
  // before the engine and index.
  LandmarkRepairer(landmark::LandmarkIndex& index, QueryEngine& engine,
                   const topics::SimilarityMatrix& sim,
                   std::shared_ptr<const graph::LabeledGraph> graph,
                   std::shared_ptr<const core::AuthorityIndex> authority);
  ~LandmarkRepairer();

  LandmarkRepairer(const LandmarkRepairer&) = delete;
  LandmarkRepairer& operator=(const LandmarkRepairer&) = delete;

  // Starts / stops the background repair thread. Without Start(),
  // RepairStale() and Quiesce() repair synchronously on the calling thread
  // (deterministic single-threaded tests and benches).
  void Start();
  void Stop();

  // Called by the MutationApplier for every batch that applied a record,
  // before it publishes the batch's generation: every slot becomes stale.
  void MarkAllStale();

  // Called by the MutationApplier right after it published the generation
  // of the batch last marked: repairs run on it from now on. Thread-safe.
  void OnBatchApplied(std::shared_ptr<const graph::LabeledGraph> graph,
                      std::shared_ptr<const core::AuthorityIndex> authority);

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

  void RecomputeStaleLocked();
  // Whether the generation of the last marked batch has been adopted.
  bool AdoptedLocked() const { return graph_seq_ == batches_; }
  // Repairs the stale slot with the oldest lists (smallest repaired_seq,
  // then lowest slot id) and returns it, or kNoSlot if none was stale.
  // Waits first while a marked batch's generation is being published.
  // Caller must hold `lock` (it is released around the refresh).
  uint32_t RepairOneLocked(std::unique_lock<std::mutex>& lock);
  std::vector<graph::NodeId> RepairStaleLocked(
      size_t budget, std::unique_lock<std::mutex>& lock);
  void RepairLoop();

  landmark::LandmarkIndex* index_;
  QueryEngine* engine_;
  const topics::SimilarityMatrix* sim_;

  obs::Counter* stale_marked_ = nullptr;
  obs::Counter* repaired_ = nullptr;
  obs::Counter* stale_reads_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<const graph::LabeledGraph> graph_;
  std::shared_ptr<const core::AuthorityIndex> authority_;
  uint64_t batches_ = 0;
  // The batch count of graph_/authority_: below batches_ from a batch's
  // MarkAllStale() until its OnBatchApplied().
  uint64_t graph_seq_ = 0;
  std::vector<uint64_t> repaired_seq_;
  bool repair_in_flight_ = false;
  bool stop_ = false;
  bool running_ = false;
  uint64_t repairs_done_ = 0;

  std::atomic<size_t> stale_count_{0};
  std::thread thread_;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_LANDMARK_REPAIR_H_
