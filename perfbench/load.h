#ifndef MBR_PERFBENCH_LOAD_H_
#define MBR_PERFBENCH_LOAD_H_

// Load generation over loopback.
//
// Readers are closed-loop: each of kReaderConnections connections sends
// its next RECOMMEND only after the previous reply, walking its own
// pre-generated stream. The writer (read_write only) is open-loop: batch k
// is due at window_start + k * write_period whatever the server does, and
// each ack is timed from its batch's due time, so a stalled server shows
// as late, slow acks rather than as fewer writes.
//
// A run is a warm-up (caches fill, not recorded) followed by the window.
// A read counts in the window when it was sent inside it, and in the slice
// of the window it was sent in (window_start <= send time, as the phase
// turns kMeasure only after window_start is set).

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace mbr::perfbench {

inline constexpr uint32_t kReaderConnections = 2;
// Length of the slices a window is cut into (LoadResult::slices). The
// end-to-end figures are medians over the slices.
inline constexpr double kSliceS = 1.0;

struct LoadConfig {
  uint16_t port = 0;
  // One stream per reader connection; a stream that runs out wraps.
  const std::vector<std::vector<ReadOp>>* reads = nullptr;
  // Open-loop writer input; null or empty = no writer.
  const std::vector<WriteBatch>* writes = nullptr;
  double write_period_s = 1.0;
  double warmup_s = 1.0;
  double window_s = 10.0;
  // Replies served above this tier (core::Tier numeric) count as degraded.
  uint8_t base_tier = 0;
  // Records one span per in-window read when set, timed from
  // `trace_origin`.
  bool traced = false;
  Tracer::Clock::time_point trace_origin{};
};

struct AckRecord {
  uint32_t records = 0;  // records sent
  uint32_t applied = 0;
  uint32_t rejected = 0;
  uint64_t graph_epoch = 0;
};

struct LoadResult {
  double window_s = 0.0;
  LatencySamples reads;  // in-window reads, failures at +infinity
  WindowCounts counts;
  // The same reads cut into the window's whole slices by send time (reads
  // sent after the last whole slice are left out).
  std::vector<LatencySamples> slices;
  // Writer: ack latency from each batch's due time, and the acks.
  LatencySamples acks;
  std::vector<AckRecord> ack_records;
  double writer_late_ms = 0.0;  // max (send time - due time)
  // Peak resident memory (MB) when the window starts: the stacks built and
  // warm, before the per-read samples, which grow with throughput.
  double rss_mb = 0.0;
  // Replies whose graph epoch was below the previous reply's on the same
  // connection.
  uint64_t epoch_regressions = 0;
  // Spans of the in-window reads (traced runs).
  Tracer trace;

  double qps() const {
    return window_s > 0 ? static_cast<double>(counts.replies) / window_s : 0.0;
  }
  // Medians over the slices: successful replies per second, and latency.
  double SliceQps() const;
  SliceMedian SliceLatency(double p) const {
    return MedianOfSlices(slices, p);
  }
};

LoadResult RunLoad(const LoadConfig& config);

}  // namespace mbr::perfbench

#endif  // MBR_PERFBENCH_LOAD_H_
