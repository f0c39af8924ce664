#include "service/landmark_repair.h"

#include <limits>

#include "util/logging.h"

namespace mbr::service {

LandmarkRepairer::LandmarkRepairer(QueryEngine& engine,
                                   const topics::SimilarityMatrix& sim)
    : engine_(&engine), sim_(&sim) {
  MBR_CHECK(engine.generation()->index != nullptr);
  obs::Registry& reg = engine.registry();
  stale_marked_ = reg.GetCounter(
      "mbr_repair_stale_marked_total",
      "Landmark slots marked stale by mutation batches.");
  repaired_ = reg.GetCounter("mbr_repair_repaired_total",
                             "Landmark refreshes completed by the repairer.");
  stale_reads_ = reg.GetCounter(
      "mbr_repair_stale_reads_total",
      "Queries scored while at least one landmark list was stale.");
}

LandmarkRepairer::LandmarkRepairer(
    const landmark::LandmarkIndex& index, QueryEngine& engine,
    const topics::SimilarityMatrix& sim,
    std::shared_ptr<const graph::LabeledGraph> graph,
    std::shared_ptr<const core::AuthorityIndex> authority)
    : LandmarkRepairer(engine, sim) {
  const std::shared_ptr<const Generation> gen = engine.generation();
  MBR_CHECK(gen->index.get() == &index);
  MBR_CHECK(gen->graph == graph);
  MBR_CHECK(gen->authority == authority);
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

std::function<void(bool)> LandmarkRepairer::MakeStaleProbe() {
  return [this](bool stale) {
    if (stale) stale_reads_->Increment();
  };
}

size_t LandmarkRepairer::stale_count() const {
  return engine_->generation()->stale_slots;
}

uint64_t LandmarkRepairer::repairs_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repairs_done_;
}

void LandmarkRepairer::OnBatchPublished() {
  {
    // Taken so a repair loop that just found nothing stale is already
    // waiting when the notification comes.
    std::lock_guard<std::mutex> lock(mu_);
    stale_marked_->Increment(engine_->generation()->lists_version.size());
  }
  cv_.notify_all();
}

uint32_t LandmarkRepairer::RepairOneLocked(
    std::unique_lock<std::mutex>& lock) {
  const std::shared_ptr<const Generation> gen = engine_->generation();
  const std::vector<uint64_t>& version = gen->lists_version;
  uint32_t slot = GenerationChange::kNoSlot;
  for (uint32_t s = 0; s < version.size(); ++s) {
    if (version[s] < gen->graph_version &&
        (slot == GenerationChange::kNoSlot || version[s] < version[slot])) {
      slot = s;
    }
  }
  if (slot == GenerationChange::kNoSlot) return GenerationChange::kNoSlot;
  // Compute on the pinned generation and publish without holding the lock:
  // a batch published meanwhile moves the graph version past the one this
  // repair credits, which keeps the slot stale for a re-repair.
  repair_in_flight_ = true;
  lock.unlock();
  const landmark::LandmarkIndex& index = *gen->index;
  GenerationChange change;
  change.slot = slot;
  change.lists = index.ComputeLists(index.landmarks()[slot], *gen->graph,
                                    *gen->authority, *sim_);
  change.lists_version = gen->graph_version;
  engine_->Publish(std::move(change));
  lock.lock();
  repaired_->Increment();
  ++repairs_done_;
  repair_in_flight_ = false;
  cv_.notify_all();
  return slot;
}

std::vector<graph::NodeId> LandmarkRepairer::RepairStaleLocked(
    size_t budget, std::unique_lock<std::mutex>& lock) {
  std::vector<graph::NodeId> repaired;
  while (repaired.size() < budget) {
    const uint32_t slot = RepairOneLocked(lock);
    if (slot == GenerationChange::kNoSlot) break;
    repaired.push_back(engine_->generation()->index->landmarks()[slot]);
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
    cv_.wait(lock, [&] { return stop_ || engine_->generation()->stale(); });
    if (stop_) return;
    RepairOneLocked(lock);
  }
}

void LandmarkRepairer::Quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) {
    cv_.wait(lock, [&] {
      return !repair_in_flight_ && !engine_->generation()->stale();
    });
  } else {
    RepairStaleLocked(std::numeric_limits<size_t>::max(), lock);
  }
}

}  // namespace mbr::service
