#ifndef MBR_UTIL_ARENA_H_
#define MBR_UTIL_ARENA_H_

// Per-worker bump allocator for query-scoped scratch memory.
//
// The serving hot path (core::Scorer, landmark::ApproxRecommender) keeps
// its frontier and per-node running state in typed spans carved out of
// one QueryArena. The arena hands out raw storage with a pointer bump —
// no per-allocation bookkeeping, no per-query malloc — and Reset() reclaims
// everything in O(#blocks) while keeping the backing memory, so a warm
// worker re-carves the same spans from the same bytes on the next capacity
// rebuild. Steady state is a single block sized to the largest working set
// the worker has ever needed: after warmup, AllocSpan never touches the
// heap (the zero-allocation invariant tracked by bench/micro_benchmarks
// and BENCH_hotpath.json).
//
// Blocks are allocated uninitialised and kBlockAlign (64-byte) aligned.
// Nothing is zero-filled, so the bytes of a block that no span touches
// (the slack of a doubling spill block) never become resident; and a span
// of any type aligned up to a cache line comes back aligned whatever was
// carved before it (core::Scorer's 64-byte node records rely on this).
//
// Contract: an arena is single-caller, like the Scorer that owns it —
// service::QueryEngine creates one arena per worker thread and hands it to
// the worker's recommenders, which keep it as they re-point at each new
// serving generation (the blocks outlive the scorers carved from them). Reset() invalidates every span previously
// handed out; only the owner that performs the Reset may hold spans.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace mbr::util {

class QueryArena {
 public:
  // Every block starts at a multiple of this many bytes, so a span may
  // ask for any alignment up to it.
  static constexpr size_t kBlockAlign = 64;

  QueryArena() = default;
  explicit QueryArena(size_t initial_bytes) {
    if (initial_bytes > 0) AddBlock(initial_bytes);
  }

  QueryArena(const QueryArena&) = delete;
  QueryArena& operator=(const QueryArena&) = delete;

  // Carves `count` default-constructible Ts off the bump pointer. The span
  // is valid until the next Reset(). Contents are NOT zeroed — callers
  // owning the zero-between-queries invariant (Scorer scratch) fill once
  // after carving. T must be trivial: Reset() never runs destructors.
  template <typename T>
  std::span<T> AllocSpan(size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "QueryArena spans are raw storage: trivial types only");
    if (count == 0) return {};
    void* p = AllocBytes(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  // Reclaims every span in O(1) amortised, keeping capacity. If allocation
  // ever spilled into a second block, the blocks are coalesced into one of
  // their combined size so the next carve sequence fits without touching
  // the heap — the self-sizing that makes steady state allocation-free.
  void Reset() {
    if (blocks_.size() > 1) {
      size_t total = 0;
      for (const Block& b : blocks_) total += b.size;
      blocks_.clear();
      AddBlock(total);
    }
    if (!blocks_.empty()) blocks_.back().used = 0;
    bytes_used_ = 0;
  }

  // Total backing bytes reserved across blocks.
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  // Bytes handed out since the last Reset (including alignment padding).
  size_t bytes_used() const { return bytes_used_; }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const {
      ::operator delete(p, std::align_val_t{kBlockAlign});
    }
  };
  struct Block {
    std::unique_ptr<std::byte, AlignedDelete> data;
    size_t size = 0;
    size_t used = 0;
  };

  static constexpr size_t kMinBlockBytes = 4096;

  void AddBlock(size_t bytes) {
    Block b;
    b.size = bytes < kMinBlockBytes ? kMinBlockBytes : bytes;
    b.data.reset(static_cast<std::byte*>(
        ::operator new(b.size, std::align_val_t{kBlockAlign})));
    blocks_.push_back(std::move(b));
  }

  void* AllocBytes(size_t bytes, size_t align) {
    MBR_CHECK(align > 0 && (align & (align - 1)) == 0 &&
              align <= kBlockAlign);
    if (!blocks_.empty()) {
      Block& b = blocks_.back();
      size_t aligned = (b.used + align - 1) & ~(align - 1);
      if (aligned + bytes <= b.size) {
        void* p = b.data.get() + aligned;
        bytes_used_ += (aligned - b.used) + bytes;
        b.used = aligned + bytes;
        return p;
      }
    }
    // Spill: open a new block at least twice the current reserve so the
    // block count stays logarithmic in the final working-set size. Its
    // base is kBlockAlign-aligned, so offset 0 suits `align`.
    AddBlock(std::max(bytes + align, 2 * bytes_reserved()));
    Block& b = blocks_.back();
    void* p = b.data.get();
    b.used = bytes;
    bytes_used_ += bytes;
    return p;
  }

  std::vector<Block> blocks_;
  size_t bytes_used_ = 0;
};

}  // namespace mbr::util

#endif  // MBR_UTIL_ARENA_H_
