#include "service/landmark_repair.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace mbr::service {

LandmarkRepairer::LandmarkRepairer(
    landmark::LandmarkIndex& index, QueryEngine& engine,
    const topics::SimilarityMatrix& sim,
    std::shared_ptr<const graph::LabeledGraph> graph,
    std::shared_ptr<const core::AuthorityIndex> authority,
    const RepairConfig& config)
    : index_(&index),
      engine_(&engine),
      sim_(&sim),
      config_(config),
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
  const size_t num_slots = index_->landmarks().size();
  marked_seq_.assign(num_slots, 0);
  repaired_seq_.assign(num_slots, 0);
  members_.resize(num_slots);
  node_to_slots_.resize(graph_->num_nodes());
  for (uint32_t s = 0; s < num_slots; ++s) ReindexSlotLocked(s);
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

void LandmarkRepairer::MarkSlotLocked(uint32_t slot) {
  ++seq_;
  marked_seq_[slot] = seq_;
  stale_marked_->Increment();
}

void LandmarkRepairer::RecomputeStaleLocked() {
  size_t stale = 0;
  for (size_t s = 0; s < marked_seq_.size(); ++s) {
    if (marked_seq_[s] > repaired_seq_[s]) ++stale;
  }
  stale_count_.store(stale, std::memory_order_relaxed);
}

void LandmarkRepairer::ReindexSlotLocked(uint32_t slot) {
  for (graph::NodeId n : members_[slot]) {
    auto& slots = node_to_slots_[n];
    slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
  }
  std::vector<graph::NodeId> members;
  const graph::NodeId lm = index_->landmarks()[slot];
  for (int t = 0; t < index_->num_topics(); ++t) {
    for (const landmark::StoredRec& rec :
         index_->Recommendations(lm, static_cast<topics::TopicId>(t))) {
      members.push_back(rec.node);
    }
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  for (graph::NodeId n : members) {
    if (n < node_to_slots_.size()) node_to_slots_[n].push_back(slot);
  }
  members_[slot] = std::move(members);
}

void LandmarkRepairer::OnBatchApplied(
    std::shared_ptr<const graph::LabeledGraph> graph,
    std::shared_ptr<const core::AuthorityIndex> authority,
    std::span<const graph::NodeId> touched) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    graph_ = std::move(graph);
    authority_ = std::move(authority);
    if (config_.mode == RepairConfig::Mode::kAll) {
      for (uint32_t s = 0; s < marked_seq_.size(); ++s) MarkSlotLocked(s);
    } else {
      // A touched vertex can change (a) the stored lists that contain it
      // and (b) — when it is a landmark — its own exploration. Everything
      // else is conservatively assumed unaffected; that is the repair-lag
      // approximation the drift bench quantifies.
      for (graph::NodeId n : touched) {
        if (n >= node_to_slots_.size()) continue;
        for (uint32_t s : node_to_slots_[n]) MarkSlotLocked(s);
        if (index_->IsLandmark(n)) {
          const auto& lms = index_->landmarks();
          for (uint32_t s = 0; s < lms.size(); ++s) {
            if (lms[s] == n) {
              MarkSlotLocked(s);
              break;
            }
          }
        }
      }
    }
    RecomputeStaleLocked();
  }
  cv_.notify_all();
}

uint32_t LandmarkRepairer::RepairOneLocked(
    std::unique_lock<std::mutex>& lock) {
  uint32_t slot = kNoSlot;
  for (uint32_t s = 0; s < marked_seq_.size(); ++s) {
    if (marked_seq_[s] > repaired_seq_[s] &&
        (slot == kNoSlot || repaired_seq_[s] < repaired_seq_[slot])) {
      slot = s;
    }
  }
  if (slot == kNoSlot) return kNoSlot;
  const uint64_t mark = marked_seq_[slot];
  // Snapshot the generation to refresh against, then release the lock for
  // the expensive part: markings that land during the refresh keep the
  // slot stale (marked_seq moves past `mark`) and trigger a re-repair.
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
  if (repaired_seq_[slot] < mark) repaired_seq_[slot] = mark;
  ReindexSlotLocked(slot);
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
      return stop_ || stale_count_.load(std::memory_order_relaxed) > 0;
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
