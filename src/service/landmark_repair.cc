#include "service/landmark_repair.h"

#include <limits>

#include "util/logging.h"

namespace mbr::service {

LandmarkRepairer::LandmarkRepairer(
    landmark::LandmarkIndex& index, QueryEngine& engine,
    const topics::SimilarityMatrix& sim,
    std::shared_ptr<const graph::LabeledGraph> graph,
    std::shared_ptr<const core::AuthorityIndex> authority)
    : index_(&index),
      engine_(&engine),
      sim_(&sim),
      graph_(std::move(graph)),
      authority_(std::move(authority)) {
  obs::Registry& reg = engine.registry();
  stale_marked_ = reg.GetCounter(
      "mbr_repair_stale_marked_total",
      "Landmark slots marked stale by mutation batches.");
  repaired_ = reg.GetCounter("mbr_repair_repaired_total",
                             "Landmark refreshes completed by the repairer.");
  stale_reads_ = reg.GetCounter(
      "mbr_repair_stale_reads_total",
      "Queries scored while at least one landmark list was stale.");
  repaired_seq_.assign(index_->landmarks().size(), 0);
}

LandmarkRepairer::~LandmarkRepairer() { Stop(); }

void LandmarkRepairer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { RepairLoop(); });
}

void LandmarkRepairer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

std::function<bool()> LandmarkRepairer::MakeStaleProbe() {
  return [this] {
    if (stale_count_.load(std::memory_order_relaxed) == 0) return false;
    stale_reads_->Increment();
    return true;
  };
}

uint64_t LandmarkRepairer::repairs_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repairs_done_;
}

void LandmarkRepairer::RecomputeStaleLocked() {
  size_t stale = 0;
  for (uint64_t seq : repaired_seq_) {
    if (seq < batches_) ++stale;
  }
  stale_count_.store(stale, std::memory_order_relaxed);
}

void LandmarkRepairer::MarkAllStale() {
  std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
  stale_marked_->Increment(repaired_seq_.size());
  stale_count_.store(repaired_seq_.size(), std::memory_order_relaxed);
}

void LandmarkRepairer::OnBatchApplied(
    std::shared_ptr<const graph::LabeledGraph> graph,
    std::shared_ptr<const core::AuthorityIndex> authority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    graph_ = std::move(graph);
    authority_ = std::move(authority);
    graph_seq_ = batches_;
  }
  cv_.notify_all();
}

uint32_t LandmarkRepairer::RepairOneLocked(
    std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] { return AdoptedLocked(); });
  uint32_t slot = kNoSlot;
  for (uint32_t s = 0; s < repaired_seq_.size(); ++s) {
    if (repaired_seq_[s] < batches_ &&
        (slot == kNoSlot || repaired_seq_[s] < repaired_seq_[slot])) {
      slot = s;
    }
  }
  if (slot == kNoSlot) return kNoSlot;
  // Snapshot the generation to refresh against, then release the lock for
  // the expensive part: a batch marked during the refresh moves batches_
  // past `seq`, which keeps the slot stale and triggers a re-repair.
  const uint64_t seq = graph_seq_;
  std::shared_ptr<const graph::LabeledGraph> g = graph_;
  std::shared_ptr<const core::AuthorityIndex> auth = authority_;
  const graph::NodeId lm = index_->landmarks()[slot];
  repair_in_flight_ = true;
  lock.unlock();
  engine_->RunExclusive(
      [&] { index_->RefreshLandmark(lm, *g, *auth, *sim_); });
  lock.lock();
  repaired_->Increment();
  ++repairs_done_;
  if (repaired_seq_[slot] < seq) repaired_seq_[slot] = seq;
  RecomputeStaleLocked();
  repair_in_flight_ = false;
  cv_.notify_all();
  return slot;
}

std::vector<graph::NodeId> LandmarkRepairer::RepairStaleLocked(
    size_t budget, std::unique_lock<std::mutex>& lock) {
  std::vector<graph::NodeId> repaired;
  while (repaired.size() < budget) {
    const uint32_t slot = RepairOneLocked(lock);
    if (slot == kNoSlot) break;
    repaired.push_back(index_->landmarks()[slot]);
  }
  return repaired;
}

std::vector<graph::NodeId> LandmarkRepairer::RepairStale(size_t budget) {
  std::unique_lock<std::mutex> lock(mu_);
  MBR_CHECK(!running_);
  return RepairStaleLocked(budget, lock);
}

void LandmarkRepairer::RepairLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stop_ || (stale_count_.load(std::memory_order_relaxed) > 0 &&
                       AdoptedLocked());
    });
    if (stop_) return;
    RepairOneLocked(lock);
  }
}

void LandmarkRepairer::Quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) {
    cv_.wait(lock, [&] {
      return stale_count_.load(std::memory_order_relaxed) == 0 &&
             !repair_in_flight_;
    });
  } else {
    RepairStaleLocked(std::numeric_limits<size_t>::max(), lock);
  }
}

}  // namespace mbr::service
