// obs::Registry / Counter / Gauge / Histogram: bucket-boundary pins, stable
// handle identity, snapshot accounting, the slow-query ring, and an 8-thread
// hammer meant to run under MBR_SANITIZE=thread (label: obs).

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/span.h"

namespace mbr::obs {
namespace {

TEST(Log2BucketTest, BoundaryPins) {
  // Bucket b holds [2^b, 2^(b+1)); bucket 0 absorbs 0.
  EXPECT_EQ(Log2Bucket(0), 0);
  EXPECT_EQ(Log2Bucket(1), 0);
  EXPECT_EQ(Log2Bucket(2), 1);
  EXPECT_EQ(Log2Bucket(3), 1);
  EXPECT_EQ(Log2Bucket(4), 2);
  EXPECT_EQ(Log2Bucket(7), 2);
  EXPECT_EQ(Log2Bucket(8), 3);
  for (int k = 0; k < kHistogramBuckets; ++k) {
    EXPECT_EQ(Log2Bucket(uint64_t{1} << k), k) << "k=" << k;
    if (k > 0) {
      EXPECT_EQ(Log2Bucket((uint64_t{1} << k) - 1), k - 1) << "k=" << k;
    }
  }
  // Everything past the last bucket's lower bound clamps to it.
  EXPECT_EQ(Log2Bucket(uint64_t{1} << 32), kHistogramBuckets - 1);
  EXPECT_EQ(Log2Bucket(std::numeric_limits<uint64_t>::max()),
            kHistogramBuckets - 1);
}

TEST(InstrumentTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);

  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(InstrumentTest, HistogramCountsSumAndBuckets) {
  Histogram h;
  for (uint64_t v : {0u, 1u, 2u, 3u, 4u, 1024u, 1025u}) h.Record(v);
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 3 + 4 + 1024 + 1025);
  EXPECT_EQ(h.BucketCount(0), 2u);   // 0, 1
  EXPECT_EQ(h.BucketCount(1), 2u);   // 2, 3
  EXPECT_EQ(h.BucketCount(2), 1u);   // 4
  EXPECT_EQ(h.BucketCount(10), 2u);  // 1024, 1025
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 7u);
  uint64_t total = 0;
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

TEST(InstrumentTest, PercentileLowerBoundPins) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.5), 0.0);  // empty
  // 90 samples in bucket 3 ([8,16)), 10 in bucket 7 ([128,256)).
  for (int i = 0; i < 90; ++i) h.Record(9);
  for (int i = 0; i < 10; ++i) h.Record(200);
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.50), 8.0);
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.90), 8.0);
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.95), 128.0);
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.99), 128.0);
}

TEST(RegistryTest, ReRegistrationReturnsTheSameHandle) {
  Registry r;
  Counter* a = r.GetCounter("t_total", "help a");
  Counter* b = r.GetCounter("t_total", "ignored later help");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3u);

  auto snap = r.SnapshotCounters();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first.help, "help a");  // first registration wins
  EXPECT_EQ(snap[0].second, 3u);
}

TEST(RegistryTest, LabelsDistinguishSeriesAndOrderDoesNot) {
  Registry r;
  Histogram* ab = r.GetHistogram("t_lat", "h", {{"a", "1"}, {"b", "2"}});
  Histogram* ba = r.GetHistogram("t_lat", "h", {{"b", "2"}, {"a", "1"}});
  Histogram* other = r.GetHistogram("t_lat", "h", {{"a", "1"}, {"b", "3"}});
  EXPECT_EQ(ab, ba);  // label order is not identity
  EXPECT_NE(ab, other);
  auto snap = r.SnapshotHistograms();
  ASSERT_EQ(snap.size(), 2u);
  // Labels come back sorted regardless of registration order.
  EXPECT_EQ(snap[0].first.labels, (Labels{{"a", "1"}, {"b", "2"}}));
}

TEST(RegistryTest, HandlePointersSurviveLaterRegistrations) {
  Registry r;
  Counter* first = r.GetCounter("t_first_total", "h");
  first->Increment();
  // Force enough registrations that vector storage would have reallocated.
  for (int i = 0; i < 200; ++i) {
    r.GetCounter("t_fill_total", "h", {{"i", std::to_string(i)}});
    r.GetGauge("t_fill_gauge", "h", {{"i", std::to_string(i)}});
    r.GetHistogram("t_fill_lat", "h", {{"i", std::to_string(i)}});
  }
  first->Increment();  // must still be valid
  EXPECT_EQ(first->Value(), 2u);
  EXPECT_EQ(r.GetCounter("t_first_total", "h"), first);
}

TEST(RegistryTest, SnapshotsPreserveRegistrationOrder) {
  Registry r;
  r.GetCounter("t_b_total", "h");
  r.GetCounter("t_a_total", "h");
  r.GetGauge("t_g", "h");
  auto counters = r.SnapshotCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first.name, "t_b_total");
  EXPECT_EQ(counters[1].first.name, "t_a_total");
  ASSERT_EQ(r.SnapshotGauges().size(), 1u);
}

// The TSan target: concurrent recording on shared handles plus concurrent
// registration of the same names must be exact, not approximately right.
TEST(RegistryTest, ConcurrentHammerIsExact) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  Counter* c = r.GetCounter("t_hammer_total", "h");
  Gauge* g = r.GetGauge("t_hammer_gauge", "h");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, c, g, t] {
      // Every thread re-registers the shared histogram: registration must
      // be thread-safe and return the same handle each time.
      for (int i = 0; i < kIters; ++i) {
        Histogram* h = r.GetHistogram("t_hammer_lat", "h");
        h->Record(static_cast<uint64_t>(t * kIters + i));
        c->Increment();
        g->Add(t % 2 == 0 ? 1 : -1);
        if (i % 128 == 0) {
          r.SnapshotHistograms();  // readers race writers
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(g->Value(), 0);
  Histogram* h = r.GetHistogram("t_hammer_lat", "h");
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(kThreads) * kIters);
  uint64_t total = 0;
  Histogram::Snapshot s = h->TakeSnapshot();
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, h->Count());
}

#ifndef MBR_OBS_NOOP
TEST(SpanTest, DisabledSpansSkipRecording) {
  // MBR_SPAN registers into Registry::Default(); use a unique stage name so
  // other tests in this binary cannot perturb the count.
  Histogram* h = StageHistogram("test.gate");
  const uint64_t before = h->Count();
  SetEnabled(false);
  { MBR_SPAN("test.gate"); }
  EXPECT_EQ(h->Count(), before);
  SetEnabled(true);
  { MBR_SPAN("test.gate"); }
  EXPECT_EQ(h->Count(), before + 1);
}
#endif

TEST(SlowQueryLogTest, ThresholdAndRingCapacity) {
  SlowQueryLog log(SlowQueryLog::Config{.threshold_micros = 0, .capacity = 2});
  for (uint64_t u = 1; u <= 3; ++u) {
    QueryTrace trace(&log, /*user=*/u, /*topic=*/4, /*top_n=*/10);
    QueryTrace::AppendStage("test.stage", 100 * u);
  }
  uint64_t cursor = 0;
  auto entries = log.ReadSince(&cursor).entries;
  ASSERT_EQ(entries.size(), 2u);  // capacity 2: oldest entry evicted
  EXPECT_EQ(entries[0].user, 2u);
  EXPECT_EQ(entries[1].user, 3u);
  ASSERT_EQ(entries[1].stages.size(), 1u);
  EXPECT_EQ(entries[1].stages[0].micros, 300u);

  // A threshold far above any test query keeps the log empty.
  SlowQueryLog quiet(
      SlowQueryLog::Config{.threshold_micros = 60'000'000, .capacity = 4});
  { QueryTrace trace(&quiet, 1, 2, 3); }
  uint64_t quiet_cursor = 0;
  EXPECT_TRUE(quiet.ReadSince(&quiet_cursor).entries.empty());
}

SlowQueryEntry EntryFor(uint64_t user) {
  SlowQueryEntry e;
  e.user = user;
  return e;
}

std::vector<uint64_t> Users(const std::vector<SlowQueryEntry>& entries) {
  std::vector<uint64_t> users;
  for (const SlowQueryEntry& e : entries) users.push_back(e.user);
  return users;
}

// A reader past the ring's capacity still gets exactly the new entries:
// the cursor counts appends, not ring slots.
TEST(SlowQueryLogTest, ReaderGetsOnlyNewEntriesPastCapacity) {
  SlowQueryLog log(SlowQueryLog::Config{.threshold_micros = 0, .capacity = 4});
  uint64_t cursor = 0;
  for (uint64_t u = 1; u <= 4; ++u) log.Append(EntryFor(u));
  SlowQueryLog::Unread first = log.ReadSince(&cursor);
  EXPECT_EQ(Users(first.entries), (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(first.missed, 0u);

  for (uint64_t u = 5; u <= 7; ++u) log.Append(EntryFor(u));
  SlowQueryLog::Unread next = log.ReadSince(&cursor);
  EXPECT_EQ(Users(next.entries), (std::vector<uint64_t>{5, 6, 7}));
  EXPECT_EQ(next.missed, 0u);

  SlowQueryLog::Unread none = log.ReadSince(&cursor);
  EXPECT_TRUE(none.entries.empty());
  EXPECT_EQ(none.missed, 0u);
}

// A burst that outruns the ring between two reads hands back the newest
// `capacity` entries and counts the overwritten rest.
TEST(SlowQueryLogTest, ReaderCountsOverwrittenEntries) {
  SlowQueryLog log(SlowQueryLog::Config{.threshold_micros = 0, .capacity = 4});
  uint64_t cursor = 0;
  for (uint64_t u = 1; u <= 7; ++u) log.Append(EntryFor(u));
  SlowQueryLog::Unread seen = log.ReadSince(&cursor);
  EXPECT_EQ(Users(seen.entries), (std::vector<uint64_t>{4, 5, 6, 7}));
  EXPECT_EQ(seen.missed, 3u);

  for (uint64_t u = 8; u <= 17; ++u) log.Append(EntryFor(u));
  SlowQueryLog::Unread burst = log.ReadSince(&cursor);
  EXPECT_EQ(Users(burst.entries), (std::vector<uint64_t>{14, 15, 16, 17}));
  EXPECT_EQ(burst.missed, 6u);
}

TEST(SlowQueryLogTest, FormatIsGreppable) {
  SlowQueryEntry e;
  e.user = 7;
  e.topic = 3;
  e.top_n = 10;
  e.total_micros = 15'632;
  e.stages.push_back({"scorer.explore", 15'000});
  EXPECT_EQ(e.Format(),
            "slow-query user=7 topic=3 top_n=10 total=15632us "
            "scorer.explore=15000us");
}

TEST(SlowQueryLogTest, NullLogTraceIsInert) {
  QueryTrace trace(nullptr, 1, 2, 3);
  QueryTrace::AppendStage("test.stage", 5);  // must not crash or leak state
}

}  // namespace
}  // namespace mbr::obs
