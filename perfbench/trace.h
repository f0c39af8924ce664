#ifndef MBR_PERFBENCH_TRACE_H_
#define MBR_PERFBENCH_TRACE_H_

// Benchmark-side spans for the traced run.
//
// The benchmark times each layer from outside, by calling that layer's
// public functions on a fixed sample of requests. A span records one such
// call: name, start, end, the span of the enclosing layer (its parent) and
// the request id shared by every span of one request. Spans stay in memory
// and are written out once, when the run ends.
//
// A layer cannot be timed from outside while it runs inside another, so
// the calls of one request run one after another: a child span measures
// the inner layer on its own, at a different time than its parent. A
// span's self time is therefore its duration minus the durations of its
// children (which the parent's interval would have contained had both run
// nested). Self time can come out slightly negative when a child happens to
// run slower alone than inside its parent; it is reported as measured.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mbr::perfbench {

struct Span {
  uint32_t id = 0;      // 1-based position in the tracer
  uint32_t parent = 0;  // 0 for a root span
  uint64_t request = 0;
  const char* name = "";  // string literal
  int64_t start_ns = 0;   // relative to the tracer's origin
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

// Not thread-safe: one tracer per thread, merged when the threads are done.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  // Appends a finished span; returns its id.
  uint32_t Record(const char* name, uint32_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end);

  // Times `fn()` as one span; returns the span id.
  template <typename Fn>
  uint32_t Time(const char* name, uint32_t parent, uint64_t request, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    return Record(name, parent, request, start, Clock::now());
  }

  // Appends `other`'s spans, renumbering their ids and parents. Both
  // tracers must share one origin.
  void Merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time (µs) of every span, indexed by id - 1.
  std::vector<double> SelfMicros() const;
  // Durations and self times (µs) grouped by span name.
  std::map<std::string, std::vector<double>> DurationsByName() const;
  std::map<std::string, std::vector<double>> SelfByName() const;

  // Writes {"envelope": <envelope_json>, "spans": [...]} to `path`, one
  // span per line as [id, parent, request, name, start_ns, end_ns].
  bool WriteJson(const std::string& path,
                 const std::string& envelope_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace mbr::perfbench

#endif  // MBR_PERFBENCH_TRACE_H_
