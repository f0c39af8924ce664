#include "obs/slow_query_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/logging.h"

namespace mbr::obs {

namespace {

// The thread-local entry under construction; null when no trace is active.
thread_local SlowQueryEntry* t_active_entry = nullptr;

}  // namespace

std::string SlowQueryEntry::Format() const {
  char head[128];
  std::snprintf(head, sizeof(head),
                "slow-query user=%" PRIu64 " topic=%" PRIu64 " top_n=%" PRIu64
                " total=%" PRIu64 "us",
                user, topic, top_n, total_micros);
  std::string out = head;
  if (tier != nullptr) {
    out += " tier=";
    out += tier;
  }
  for (const StageTiming& s : stages) {
    char part[96];
    std::snprintf(part, sizeof(part), " %s=%" PRIu64 "us", s.stage, s.micros);
    out += part;
  }
  return out;
}

SlowQueryLog::Unread SlowQueryLog::ReadSince(uint64_t* cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t oldest = appended_ - ring_.size();
  const uint64_t from = std::clamp(*cursor, oldest, appended_);
  Unread out;
  out.missed = from > *cursor ? from - *cursor : 0;
  out.entries.reserve(appended_ - from);
  for (uint64_t k = from; k < appended_; ++k) {
    out.entries.push_back(ring_[k % config_.capacity]);
  }
  *cursor = appended_;
  return out;
}

void SlowQueryLog::Append(SlowQueryEntry e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.capacity == 0) return;
  if (ring_.size() < config_.capacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[appended_ % config_.capacity] = std::move(e);
  }
  ++appended_;
}

SlowQueryLog& SlowQueryLog::Default() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

QueryTrace::QueryTrace(SlowQueryLog* log, uint64_t user, uint64_t topic,
                       uint64_t top_n)
    : log_(log), start_(std::chrono::steady_clock::now()) {
  MBR_CHECK(t_active_entry == nullptr);  // traces do not nest
  entry_.user = user;
  entry_.topic = topic;
  entry_.top_n = top_n;
  if (log_ != nullptr) t_active_entry = &entry_;
}

QueryTrace::~QueryTrace() {
  t_active_entry = nullptr;
  if (log_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  entry_.total_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  if (entry_.total_micros >= log_->threshold_micros()) {
    log_->Append(std::move(entry_));
  }
}

void QueryTrace::AppendStage(const char* stage, uint64_t micros) {
  if (t_active_entry != nullptr) {
    t_active_entry->stages.push_back({stage, micros});
  }
}

void QueryTrace::SetServedTier(const char* tier) {
  if (t_active_entry != nullptr) {
    t_active_entry->tier = tier;
  }
}

}  // namespace mbr::obs
