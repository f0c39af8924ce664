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
// §6.5). The marks are version counters recorded in each published
// service::Generation, not kept here:
//
//   graph_version    — graph changes (applied batches) published so far;
//   lists_version[s] — the graph_version of the generation slot s's lists
//                      were last computed on.
//
//   slot s is STALE in a generation  iff  lists_version[s] < graph_version.
//
// Marked by construction: the publish that serves a batch's graph is the
// one that makes every slot stale, so no reply scored on it can be stamped
// kApprox from lists computed on an older graph, whatever a repair is
// doing meanwhile. A reply's tier is decided from the generation it
// pinned, not from the repairer's live state.
//
// The repair unit: pin the engine's current generation, re-run Algorithm 1
// for one landmark on its graph (LandmarkIndex::ComputeLists) without
// holding anything a reader waits on, then QueryEngine::Publish() a copy of
// the then-current index with that slot replaced, crediting the version it
// computed on. A repair that raced a newer batch therefore leaves its slot
// stale (re-repair, not lost updates). Each repair publishes, so it bumps
// the graph epoch and keeps cached rankings from before it unreachable.
// Because ComputeLists is deterministic, after Quiesce() the index is
// byte-identical to a fresh build on the live generation.
//
// Stale *detection at query time* costs nothing extra: the engine hands
// its stale probe (install via MakeStaleProbe) the pinned generation's
// verdict, and the probe increments mbr_repair_stale_reads_total whenever
// a query is scored on a generation with a stale slot — the
// serving-visible measure of repair lag that the churn drift bench
// correlates with recall/Kendall-tau.
//
// Schedule (the paper's §6 "updating strategies"): the next repair takes
// the stale slot with the smallest lists_version — the oldest stored lists
// — ties broken by slot id. Since every batch marks every slot this is
// round-robin over the landmarks. RepairStale(budget) runs that order
// under a per-round budget on the calling thread, which is how
// bench/ext_dynamic_updates runs the §6 refresh study on the serving path.
// Repairs run one at a time.

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
  // Repairs the landmark index `engine` serves (it must have one). Both
  // references must outlive the repairer; destroy (or Stop) the repairer
  // before the engine.
  LandmarkRepairer(QueryEngine& engine, const topics::SimilarityMatrix& sim);
  // The same repairer, for callers that name the engine's current index,
  // graph and authority (checked) as well.
  LandmarkRepairer(const landmark::LandmarkIndex& index, QueryEngine& engine,
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

  // Called by the MutationApplier after it published a batch that applied
  // a record, which made every slot stale: counts the marks
  // (mbr_repair_stale_marked_total) and wakes the repair thread.
  void OnBatchPublished();

  // Repairs up to `budget` stale slots, oldest lists first, on the
  // calling thread and returns their landmarks in repair order. Only
  // without Start(): the repair thread owns the schedule once running.
  std::vector<graph::NodeId> RepairStale(size_t budget);

  // Blocks until no slot is stale and no repair is in flight. With the
  // thread running this waits; otherwise it repairs inline.
  void Quiesce();

  // Stale slots in the engine's current generation.
  size_t stale_count() const;
  uint64_t repairs_done() const;

  // Probe for QueryEngine::SetStaleProbe: counts queries scored on a
  // generation with a stale landmark slot.
  std::function<void(bool)> MakeStaleProbe();

 private:
  // Repairs the stale slot with the oldest lists (smallest lists_version,
  // then lowest slot id) in the current generation and returns it, or
  // GenerationChange::kNoSlot if none was stale. Caller must hold `lock`; it is released
  // while the lists are computed and published.
  uint32_t RepairOneLocked(std::unique_lock<std::mutex>& lock);
  std::vector<graph::NodeId> RepairStaleLocked(
      size_t budget, std::unique_lock<std::mutex>& lock);
  void RepairLoop();

  QueryEngine* engine_;
  const topics::SimilarityMatrix* sim_;

  obs::Counter* stale_marked_ = nullptr;
  obs::Counter* repaired_ = nullptr;
  obs::Counter* stale_reads_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool repair_in_flight_ = false;
  bool stop_ = false;
  bool running_ = false;
  uint64_t repairs_done_ = 0;

  std::thread thread_;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_LANDMARK_REPAIR_H_
