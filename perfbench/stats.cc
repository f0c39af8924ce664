#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mbr::perfbench {

const char* FailKindName(FailKind k) {
  switch (k) {
    case FailKind::kOverloaded:
      return "overloaded";
    case FailKind::kError:
      return "error";
    case FailKind::kTimeout:
      return "timeout";
    case FailKind::kConnect:
      return "connect";
  }
  return "unknown";
}

void LatencySamples::AddFailure(FailKind kind) {
  ++fail_counts_[static_cast<size_t>(kind)];
  values_.push_back(std::numeric_limits<double>::infinity());
}

void LatencySamples::Append(const LatencySamples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  for (size_t k = 0; k < kNumFailKinds; ++k) {
    fail_counts_[k] += other.fail_counts_[k];
  }
}

uint64_t LatencySamples::failures() const {
  uint64_t total = 0;
  for (uint64_t c : fail_counts_) total += c;
  return total;
}

Percentile LatencySamples::At(double p) const {
  Percentile out;
  out.samples = values_.size();
  if (values_.empty()) return out;
  const size_t n = values_.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  out.value_us = sorted[rank - 1];
  out.beyond = n - rank;
  out.reportable =
      std::isfinite(out.value_us) && out.beyond >= kMinSamplesBeyond;
  return out;
}

std::string Ratio::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g (%llu/%llu)", value(),
                static_cast<unsigned long long>(num),
                static_cast<unsigned long long>(den));
  return buf;
}

Ratio FailedRatio(const WindowCounts& c) {
  return {c.read_failures + c.write_failures,
          c.read_attempts + c.write_attempts};
}

Ratio DegradedRatio(const WindowCounts& c) {
  return {c.degraded_replies, c.replies};
}

StackCounters Delta(const StackCounters& after,
                     const StackCounters& before) {
  StackCounters d;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.net_admitted = after.net_admitted - before.net_admitted;
  d.net_shed_overload = after.net_shed_overload - before.net_shed_overload;
  d.net_shed_deadline = after.net_shed_deadline - before.net_shed_deadline;
  d.net_bytes = after.net_bytes - before.net_bytes;
  d.coord_requests = after.coord_requests - before.coord_requests;
  d.coord_fanout = after.coord_fanout - before.coord_fanout;
  d.coord_fetches = after.coord_fetches - before.coord_fetches;
  d.coord_partial = after.coord_partial - before.coord_partial;
  d.stale_reads = after.stale_reads - before.stale_reads;
  return d;
}

Ratio CacheHitRatio(const StackCounters& d) {
  return {d.cache_hits, d.cache_hits + d.cache_misses};
}

Ratio ShedRatio(const StackCounters& d) {
  return {d.net_shed_overload + d.net_shed_deadline,
          d.net_admitted + d.net_shed_overload};
}

Ratio BytesPerRequest(const StackCounters& d) {
  return {d.net_bytes, d.net_admitted};
}

Ratio FanoutPerRequest(const StackCounters& d) {
  return {d.coord_fanout, d.coord_requests};
}

Ratio FetchesPerRequest(const StackCounters& d) {
  return {d.coord_fetches, d.coord_requests};
}

Ratio PartialRatio(const StackCounters& d) {
  return {d.coord_partial, d.coord_requests};
}

Ratio StaleReadsRatio(const StackCounters& d) {
  return {d.stale_reads, d.cache_misses};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

SliceMedian MedianOfSlices(const std::vector<LatencySamples>& slices,
                           double p) {
  SliceMedian out;
  out.slices = slices.size();
  std::vector<double> values;
  values.reserve(slices.size());
  for (const LatencySamples& s : slices) {
    const Percentile q = s.At(p);
    if (!q.reportable) ++out.unsupported;
    values.push_back(q.reportable ? q.value_us
                                  : std::numeric_limits<double>::infinity());
  }
  out.value = Median(std::move(values));
  out.reportable = out.slices > 0 && std::isfinite(out.value);
  return out;
}

}  // namespace mbr::perfbench
