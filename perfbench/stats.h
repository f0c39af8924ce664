#ifndef MBR_PERFBENCH_STATS_H_
#define MBR_PERFBENCH_STATS_H_

// Accounting rules of the serving benchmark, kept apart from the load
// generators so the self-test can pin them:
//
//   * a latency percentile is reported only when at least
//     kMinSamplesBeyond samples lie beyond it; otherwise the run is
//     flagged instead of printing a number the sample cannot support;
//   * a failed operation (OVERLOADED, ERROR, timeout, connect failure)
//     counts against the attempts and as a sample at +infinity, i.e. a
//     request that missed every latency limit;
//   * every ratio carries its base (numerator and denominator).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mbr::perfbench {

inline constexpr size_t kMinSamplesBeyond = 10;

enum class FailKind : uint8_t {
  kOverloaded,  // server shed the request (OVERLOADED frame)
  kError,       // ERROR reply or a reply that did not decode
  kTimeout,     // client-side request timeout / DEADLINE_EXCEEDED
  kConnect,     // could not connect (or reconnect) to the server
};
inline constexpr size_t kNumFailKinds = 4;
const char* FailKindName(FailKind k);

struct Percentile {
  double value_us = 0.0;  // +infinity when the rank lands on a failure
  size_t samples = 0;
  size_t beyond = 0;      // samples ranked above the percentile
  bool reportable = false;
};

// Latencies of one measurement window.
class LatencySamples {
 public:
  void AddOk(double us) { values_.push_back(us); }
  void AddFailure(FailKind kind);
  void Append(const LatencySamples& other);

  size_t size() const { return values_.size(); }
  uint64_t failures() const;
  uint64_t failures(FailKind kind) const {
    return fail_counts_[static_cast<size_t>(kind)];
  }

  // Nearest-rank percentile (rank ceil(p * n), 1-based) over successes and
  // failures together. Reportable iff the value is finite and at least
  // kMinSamplesBeyond samples rank above it. p in (0, 1).
  Percentile At(double p) const;

 private:
  std::vector<double> values_;
  std::array<uint64_t, kNumFailKinds> fail_counts_{};
};

struct Ratio {
  uint64_t num = 0;
  uint64_t den = 0;
  // 0 when the base is empty (nothing happened, so nothing went wrong).
  double value() const {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }
  std::string ToString() const;  // "0.0123 (12/975)"
};

// Operation counts of one measurement window.
struct WindowCounts {
  uint64_t read_attempts = 0;
  uint64_t read_failures = 0;
  uint64_t write_attempts = 0;
  uint64_t write_failures = 0;
  // Successful reads, and those stamped partial=1 or served below the
  // engine's base tier.
  uint64_t replies = 0;
  uint64_t degraded_replies = 0;
};

// failed ÷ attempted, over reads and writes together.
Ratio FailedRatio(const WindowCounts& c);
// degraded replies ÷ replies.
Ratio DegradedRatio(const WindowCounts& c);

// Server-side counters of a stack (engine, net, coord series), summed over
// its servers; the difference of two readings covers a window.
struct StackCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;  // lookups that ran a scorer
  uint64_t net_admitted = 0;  // work requests admitted
  uint64_t net_shed_overload = 0;
  uint64_t net_shed_deadline = 0;
  uint64_t net_bytes = 0;  // read + written
  uint64_t coord_requests = 0;
  uint64_t coord_fanout = 0;
  uint64_t coord_fetches = 0;
  uint64_t coord_partial = 0;
  uint64_t stale_reads = 0;  // reads scored while a landmark list was stale
};
StackCounters Delta(const StackCounters& after, const StackCounters& before);

// hits ÷ (hits + misses).
Ratio CacheHitRatio(const StackCounters& d);
// (OVERLOADED + DEADLINE_EXCEEDED) ÷ (admitted + OVERLOADED): shed work
// requests over the work requests that arrived.
Ratio ShedRatio(const StackCounters& d);
// bytes read + written ÷ admitted requests.
Ratio BytesPerRequest(const StackCounters& d);
// shard RPCs, LANDMARK_FETCH RPCs and partial merges ÷ routed requests.
Ratio FanoutPerRequest(const StackCounters& d);
Ratio FetchesPerRequest(const StackCounters& d);
Ratio PartialRatio(const StackCounters& d);
// reads scored while a list was stale ÷ scored reads.
Ratio StaleReadsRatio(const StackCounters& d);

// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

// A window cut into equal time slices (by send time). The end-to-end
// figures are medians over the slices, so a few seconds of interference
// from the host move them by at most a few ranks.
struct SliceMedian {
  double value = 0.0;  // +infinity when most slices cannot support it
  size_t slices = 0;
  size_t unsupported = 0;  // slices whose own percentile is not reportable
  bool reportable = false;
};

// Median over slices of each slice's percentile p, where a slice whose
// percentile is not reportable (LatencySamples::At) counts as +infinity.
// Reportable iff that median is finite.
SliceMedian MedianOfSlices(const std::vector<LatencySamples>& slices,
                           double p);

}  // namespace mbr::perfbench

#endif  // MBR_PERFBENCH_STATS_H_
