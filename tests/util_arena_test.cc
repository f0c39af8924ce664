// util::QueryArena: bump allocation, alignment, Reset coalescing, and the
// steady-state guarantee that a warm arena re-carves without growing.

#include "util/arena.h"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

namespace mbr::util {
namespace {

TEST(QueryArenaTest, StartsEmpty) {
  QueryArena a;
  EXPECT_EQ(a.bytes_reserved(), 0u);
  EXPECT_EQ(a.bytes_used(), 0u);
  EXPECT_EQ(a.num_blocks(), 0u);
  EXPECT_TRUE(a.AllocSpan<double>(0).empty());
}

TEST(QueryArenaTest, AllocSpanGivesDistinctAlignedStorage) {
  QueryArena a;
  std::span<double> d = a.AllocSpan<double>(100);
  std::span<uint8_t> b = a.AllocSpan<uint8_t>(33);
  std::span<uint64_t> q = a.AllocSpan<uint64_t>(7);
  ASSERT_EQ(d.size(), 100u);
  ASSERT_EQ(b.size(), 33u);
  ASSERT_EQ(q.size(), 7u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(q.data()) % alignof(uint64_t), 0u);

  // Spans are disjoint and writable.
  for (size_t i = 0; i < d.size(); ++i) d[i] = static_cast<double>(i);
  std::memset(b.data(), 0xab, b.size());
  for (size_t i = 0; i < q.size(); ++i) q[i] = ~uint64_t{0};
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i], static_cast<double>(i));
  }
  EXPECT_GE(a.bytes_used(), 100 * sizeof(double) + 33 + 7 * sizeof(uint64_t));
  EXPECT_LE(a.bytes_used(), a.bytes_reserved());
}

TEST(QueryArenaTest, ResetReclaimsAndKeepsCapacity) {
  QueryArena a;
  (void)a.AllocSpan<double>(500);
  const size_t reserved = a.bytes_reserved();
  ASSERT_GT(reserved, 0u);

  a.Reset();
  EXPECT_EQ(a.bytes_used(), 0u);
  EXPECT_EQ(a.bytes_reserved(), reserved);  // backing memory retained

  // Re-carving the same shape fits in the retained block: no growth.
  (void)a.AllocSpan<double>(500);
  EXPECT_EQ(a.bytes_reserved(), reserved);
  EXPECT_EQ(a.num_blocks(), 1u);
}

TEST(QueryArenaTest, SpillOpensBlockThenResetCoalesces) {
  QueryArena a(4096);
  ASSERT_EQ(a.num_blocks(), 1u);
  (void)a.AllocSpan<uint8_t>(4000);
  // Does not fit the remainder of block 1 -> spills into a second block.
  (void)a.AllocSpan<uint8_t>(2000);
  EXPECT_EQ(a.num_blocks(), 2u);
  const size_t reserved = a.bytes_reserved();

  a.Reset();
  // Coalesced into one block of at least the combined size, so the same
  // carve sequence now fits without heap traffic.
  EXPECT_EQ(a.num_blocks(), 1u);
  EXPECT_GE(a.bytes_reserved(), reserved);
  const size_t coalesced = a.bytes_reserved();
  (void)a.AllocSpan<uint8_t>(4000);
  (void)a.AllocSpan<uint8_t>(2000);
  EXPECT_EQ(a.num_blocks(), 1u);
  EXPECT_EQ(a.bytes_reserved(), coalesced);
}

TEST(QueryArenaTest, SteadyStateAfterWarmup) {
  QueryArena a;
  // Warmup pass with the largest working set.
  (void)a.AllocSpan<double>(10000);
  (void)a.AllocSpan<uint32_t>(10000);
  (void)a.AllocSpan<uint8_t>(10000);
  a.Reset();
  const size_t reserved = a.bytes_reserved();
  const size_t blocks = a.num_blocks();

  // Repeated queries at or below the high-water mark never grow the arena.
  for (int pass = 0; pass < 50; ++pass) {
    std::span<double> d = a.AllocSpan<double>(10000 - pass * 100);
    std::span<uint32_t> u = a.AllocSpan<uint32_t>(10000);
    std::span<uint8_t> b = a.AllocSpan<uint8_t>(512);
    d[0] = 1.0;
    u[0] = 2;
    b[0] = 3;
    EXPECT_EQ(a.bytes_reserved(), reserved) << "pass " << pass;
    EXPECT_EQ(a.num_blocks(), blocks) << "pass " << pass;
    a.Reset();
  }
}

// A cache-line-aligned type comes back cache-line aligned wherever it is
// carved: after an odd-sized span, as the first span of a spill block, and
// in the one block Reset() coalesces the spill into.
TEST(QueryArenaTest, CacheLineAlignedSpansStayAligned) {
  struct alignas(64) Line {
    double v[8];
  };
  static_assert(alignof(Line) == 64);
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % 64 == 0;
  };

  QueryArena a(4096);
  (void)a.AllocSpan<uint8_t>(1);  // odd-sized carve first
  std::span<Line> in_block = a.AllocSpan<Line>(3);
  EXPECT_TRUE(aligned(in_block.data()));
  (void)a.AllocSpan<uint64_t>(1);
  std::span<Line> after_word = a.AllocSpan<Line>(2);
  EXPECT_TRUE(aligned(after_word.data()));
  ASSERT_EQ(a.num_blocks(), 1u);

  // Larger than what is left: opens a spill block.
  std::span<Line> spilled = a.AllocSpan<Line>(100);
  ASSERT_EQ(a.num_blocks(), 2u);
  EXPECT_TRUE(aligned(spilled.data()));

  a.Reset();
  ASSERT_EQ(a.num_blocks(), 1u);
  (void)a.AllocSpan<uint8_t>(7);
  std::span<Line> coalesced = a.AllocSpan<Line>(100);
  EXPECT_TRUE(aligned(coalesced.data()));
  for (Line& l : coalesced) l.v[0] = 1.0;  // writable
  EXPECT_EQ(a.num_blocks(), 1u);
}

TEST(QueryArenaTest, InitialBytesRoundsUpToMinBlock) {
  QueryArena a(1);  // tiny request still yields a usable block
  EXPECT_EQ(a.num_blocks(), 1u);
  EXPECT_GE(a.bytes_reserved(), 4096u);
  std::span<uint64_t> s = a.AllocSpan<uint64_t>(16);
  ASSERT_EQ(s.size(), 16u);
  EXPECT_EQ(a.num_blocks(), 1u);
}

}  // namespace
}  // namespace mbr::util
