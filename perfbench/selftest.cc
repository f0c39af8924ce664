// Self-test of the benchmark's own accounting: the percentile rule, failures
// counted as misses, the base of every ratio, span self times, and seed
// determinism of the request and mutation traces.
//
//   perfbench_selftest        exit 0 when every check holds

#include <cmath>
#include <cstdio>
#include <vector>

#include "graph/labeled_graph.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace mbr::perfbench;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

// A percentile is reportable only with at least 10 samples ranked above it.
void TestPercentileRule() {
  LatencySamples s;
  for (int i = 1; i <= 1000; ++i) s.AddOk(i);
  Percentile p99 = s.At(0.99);
  Check(p99.value_us == 990.0, "p99 of 1..1000 is 990");
  Check(p99.beyond == 10 && p99.reportable, "1000 samples support p99");

  LatencySamples t;
  for (int i = 1; i <= 999; ++i) t.AddOk(i);
  Percentile q = t.At(0.99);
  Check(q.beyond == 9 && !q.reportable, "999 samples do not support p99");
  Check(t.At(0.5).reportable, "999 samples support p50");

  LatencySamples few;
  for (int i = 1; i <= 19; ++i) few.AddOk(i);
  Check(!few.At(0.5).reportable, "19 samples do not support p50");
  few.AddOk(20);
  Check(few.At(0.5).reportable && few.At(0.5).value_us == 10.0,
        "20 samples support p50 = 10");

  Check(!LatencySamples().At(0.5).reportable, "no samples, nothing reported");
}

// A failure is a sample at +infinity: it raises the percentiles and, when
// the rank lands on it, makes the percentile unreportable.
void TestFailuresAreMisses() {
  LatencySamples s;
  for (int i = 1; i <= 990; ++i) s.AddOk(1.0);
  for (int i = 0; i < 10; ++i) s.AddFailure(FailKind::kOverloaded);
  Check(s.size() == 1000 && s.failures() == 10, "failures are samples");
  Check(s.failures(FailKind::kOverloaded) == 10 &&
            s.failures(FailKind::kTimeout) == 0,
        "failures counted by kind");
  Check(s.At(0.99).value_us == 1.0 && s.At(0.99).reportable,
        "10 failures lie beyond p99");

  s.AddFailure(FailKind::kTimeout);
  s.AddFailure(FailKind::kConnect);
  Percentile p = s.At(0.99);
  Check(std::isinf(p.value_us) && !p.reportable,
        "a percentile landing on a failure is not reported");

  LatencySamples a;
  a.AddOk(5.0);
  LatencySamples b;
  b.AddFailure(FailKind::kError);
  a.Append(b);
  Check(a.size() == 2 && a.failures(FailKind::kError) == 1,
        "Append keeps failures and their kinds");
}

void TestRatioBases() {
  WindowCounts c;
  c.read_attempts = 900;
  c.read_failures = 3;
  c.write_attempts = 100;
  c.write_failures = 2;
  c.replies = 897;
  c.degraded_replies = 13;
  const Ratio failed = FailedRatio(c);
  Check(failed.num == 5 && failed.den == 1000,
        "failed_ratio = (read + write failures) / (read + write attempts)");
  const Ratio degraded = DegradedRatio(c);
  Check(degraded.num == 13 && degraded.den == 897,
        "degraded_ratio = degraded replies / replies");
  Check(Ratio{0, 0}.value() == 0.0, "an empty base gives 0");
  Check(Ratio{1, 4}.value() == 0.25, "1/4");
  Check(Ratio{1, 4}.ToString() == "0.25 (1/4)", "a ratio prints its base");
}

void TestServerRatioBases() {
  StackCounters before;
  before.cache_hits = 100;
  before.cache_misses = 50;
  before.net_admitted = 1000;
  StackCounters after;
  after.cache_hits = 163;
  after.cache_misses = 87;
  after.net_admitted = 1100;
  after.net_shed_overload = 4;
  after.net_shed_deadline = 2;
  after.net_bytes = 20600;
  after.coord_requests = 50;
  after.coord_fanout = 97;
  after.coord_fetches = 47;
  after.coord_partial = 1;
  after.stale_reads = 9;
  const StackCounters d = Delta(after, before);
  Check(d.cache_hits == 63 && d.cache_misses == 37 && d.net_admitted == 100,
        "Delta subtracts field by field");
  const Ratio hit = CacheHitRatio(d);
  Check(hit.num == 63 && hit.den == 100, "cache hits / lookups");
  const Ratio shed = ShedRatio(d);
  Check(shed.num == 6 && shed.den == 104,
        "shed / (admitted + OVERLOADED arrivals)");
  const Ratio bytes = BytesPerRequest(d);
  Check(bytes.num == 20600 && bytes.den == 100, "bytes / admitted requests");
  Check(FanoutPerRequest(d).num == 97 && FanoutPerRequest(d).den == 50,
        "shard RPCs / routed requests");
  Check(FetchesPerRequest(d).num == 47 && FetchesPerRequest(d).den == 50,
        "landmark fetches / routed requests");
  Check(PartialRatio(d).num == 1 && PartialRatio(d).den == 50,
        "partial merges / routed requests");
  Check(StaleReadsRatio(d).num == 9 && StaleReadsRatio(d).den == 37,
        "stale reads / scored reads");
}

void TestMedian() {
  Check(Median({3, 1, 2}) == 2.0, "odd median");
  Check(Median({4, 1, 2, 3}) == 2.5, "even median");
  Check(Median({}) == 0.0, "empty median");
}

// The end-to-end percentiles are medians over slices; a slice that cannot
// support its percentile counts as +infinity.
void TestSliceMedian() {
  auto slice = [](double base, int n) {
    LatencySamples s;
    for (int i = 1; i <= n; ++i) s.AddOk(base + i);
    return s;
  };
  std::vector<LatencySamples> slices = {slice(0, 1000), slice(1000, 1000),
                                        slice(5000, 1000)};
  SliceMedian m = MedianOfSlices(slices, 0.99);
  Check(m.reportable && m.value == 1990.0 && m.unsupported == 0,
        "median of slice p99s 990, 1990, 5990 is 1990");

  slices[2] = slice(0, 999);  // cannot support a p99
  m = MedianOfSlices(slices, 0.99);
  Check(m.reportable && m.unsupported == 1 && m.value == 1990.0,
        "an unsupported slice ranks above every supported one");

  // 11 failures in 1011 samples: the p99 rank lands on a failure.
  for (int i = 0; i < 11; ++i) slices[0].AddFailure(FailKind::kTimeout);
  m = MedianOfSlices(slices, 0.99);
  Check(!m.reportable && m.unsupported == 2 && std::isinf(m.value),
        "most slices unsupported: not reported");
  Check(!MedianOfSlices({}, 0.5).reportable, "no slices, nothing reported");
}

// Self time = duration - durations of the logical children.
void TestSpanSelfTime() {
  using Clock = Tracer::Clock;
  const Clock::time_point t0 = Clock::now();
  auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  Tracer tr(t0);
  const uint32_t root = tr.Record("root", 0, 7, at(0), at(100));
  const uint32_t child = tr.Record("child", root, 7, at(200), at(260));
  tr.Record("grandchild", child, 7, at(300), at(310));
  tr.Record("child", root, 7, at(400), at(420));
  const std::vector<double> self = tr.SelfMicros();
  Check(self.size() == 4, "one self time per span");
  Check(std::abs(self[0] - 20.0) < 1e-9, "root self = 100 - 60 - 20");
  Check(std::abs(self[1] - 50.0) < 1e-9, "child self = 60 - 10");
  Check(std::abs(self[2] - 10.0) < 1e-9, "leaf self = its duration");
  Check(tr.SelfByName()["child"].size() == 2, "self times grouped by name");

  Tracer other(t0);
  const uint32_t r2 = other.Record("root", 0, 8, at(0), at(10));
  other.Record("child", r2, 8, at(20), at(25));
  tr.Merge(other);
  Check(tr.spans().size() == 6 && tr.spans()[5].parent == 5 &&
            tr.spans()[4].id == 5,
        "Merge renumbers ids and parents");
}

mbr::graph::LabeledGraph SmallGraph() {
  mbr::graph::GraphBuilder b(50, 4);
  for (uint32_t u = 0; u < 50; ++u) {
    b.SetNodeLabels(u, mbr::topics::TopicSet::Single(u % 4));
    for (uint32_t k = 1; k <= 5; ++k) {
      b.AddEdge(u, (u + k * 7) % 50, mbr::topics::TopicSet::Single(k % 4));
    }
  }
  return std::move(b).Build();
}

void TestSeedDeterminism() {
  for (ReadMix mix : {ReadMix::kZipf, ReadMix::kUniform}) {
    const auto a = MakeReads(mix, 20000, 18, 5000, 42, 0);
    const auto b = MakeReads(mix, 20000, 18, 5000, 42, 0);
    Check(TraceDigest(a) == TraceDigest(b), "same seed, same reads");
    Check(TraceDigest(a) != TraceDigest(MakeReads(mix, 20000, 18, 5000, 43, 0)),
          "another seed, other reads");
    Check(TraceDigest(a) != TraceDigest(MakeReads(mix, 20000, 18, 5000, 42, 1)),
          "another stream, other reads");
    bool in_range = true;
    for (const ReadOp& op : a) in_range &= op.user < 20000 && op.topic < 18;
    Check(in_range, "reads stay inside the graph");
  }

  const mbr::graph::LabeledGraph g = SmallGraph();
  const auto w1 = MakeWriteBatches(g, 12, 4, 42);
  const auto w2 = MakeWriteBatches(g, 12, 4, 42);
  Check(TraceDigest(w1) == TraceDigest(w2), "same seed, same mutations");
  Check(TraceDigest(w1) != TraceDigest(MakeWriteBatches(g, 12, 4, 43)),
        "another seed, other mutations");
  bool valid = true;
  for (size_t i = 0; i < w1.size(); ++i) {
    valid &= w1[i].follow == (i % 2 == 0) && w1[i].records.size() == 4;
    for (const auto& r : w1[i].records) {
      valid &= w1[i].follow ? !g.HasEdge(r.src, r.dst) && r.labels != 0
                            : g.HasEdge(r.src, r.dst);
    }
  }
  Check(valid, "FOLLOW names absent edges, UNFOLLOW present ones");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestFailuresAreMisses();
  TestRatioBases();
  TestServerRatioBases();
  TestMedian();
  TestSliceMedian();
  TestSpanSelfTime();
  TestSeedDeterminism();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
