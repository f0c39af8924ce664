#ifndef MBR_OBS_SLOW_QUERY_LOG_H_
#define MBR_OBS_SLOW_QUERY_LOG_H_

// Sampled slow-query log: a bounded ring of the most recent queries whose
// end-to-end time crossed a threshold, each with its per-stage span
// breakdown.
//
// The engine wraps each query execution in a QueryTrace; MBR_SPAN sites
// that run under it append (stage, micros) entries to a thread-local
// scratch buffer. On destruction the trace either discards the buffer
// (fast path) or, if total time >= threshold, pushes one SlowQueryEntry
// into the log under a mutex. Queries below the threshold never touch a
// lock. A reader polls ReadSince with a cursor, so it never re-reads an
// entry, and what the ring overwrote before it read is reported as a
// count rather than skipped silently.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mbr::obs {

struct StageTiming {
  const char* stage;  // string literal from the MBR_SPAN site
  uint64_t micros = 0;
};

struct SlowQueryEntry {
  uint64_t user = 0;
  uint64_t topic = 0;
  uint64_t top_n = 0;
  uint64_t total_micros = 0;
  // Degradation-ladder tier that served the query ("exact", "approx",
  // "stale"); nullptr when the traced path never stamped one. A literal,
  // like StageTiming::stage. Makes a degraded burst diagnosable: a slow
  // window whose entries all say tier=approx was pressure, not regression.
  const char* tier = nullptr;
  std::vector<StageTiming> stages;

  // "slow-query user=7 topic=3 top_n=10 total=15632us tier=exact
  //  scorer.explore=15000us"
  std::string Format() const;
};

class SlowQueryLog {
 public:
  struct Config {
    uint64_t threshold_micros = 50'000;  // 50 ms
    size_t capacity = 64;
  };

  SlowQueryLog() = default;
  explicit SlowQueryLog(Config c) : config_(c) {}

  uint64_t threshold_micros() const { return config_.threshold_micros; }

  // What a reader has not seen yet (see ReadSince).
  struct Unread {
    std::vector<SlowQueryEntry> entries;  // oldest first
    uint64_t missed = 0;  // appended since the cursor, overwritten unread
  };
  // The entries appended since `*cursor` (a count of appends; a new
  // reader starts at 0), at most the newest Config::capacity of them, and
  // how many older ones the ring overwrote before this call. Advances
  // `*cursor` past everything appended so far, in one hold of the lock.
  Unread ReadSince(uint64_t* cursor) const;

  // Process-wide log used by QueryTrace's default constructor path.
  static SlowQueryLog& Default();

  void Append(SlowQueryEntry e);

 private:
  const Config config_{};
  mutable std::mutex mu_;
  // Append k (0-based) lives at ring_[k % capacity] until overwritten.
  std::vector<SlowQueryEntry> ring_;
  uint64_t appended_ = 0;
};

// RAII scope marking "a query is being traced on this thread". At most one
// may be active per thread (nested traces are a programmer error).
class QueryTrace {
 public:
  QueryTrace(SlowQueryLog* log, uint64_t user, uint64_t topic,
             uint64_t top_n);
  ~QueryTrace();

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  // Called by SpanTimer when a span closes inside an active trace.
  // No-op when no trace is active on this thread.
  static void AppendStage(const char* stage, uint64_t micros);

  // Records the serving tier on the active trace (a string literal, e.g.
  // core::TierName()). No-op when no trace is active on this thread.
  static void SetServedTier(const char* tier);

 private:
  SlowQueryLog* log_;
  SlowQueryEntry entry_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mbr::obs

#endif  // MBR_OBS_SLOW_QUERY_LOG_H_
