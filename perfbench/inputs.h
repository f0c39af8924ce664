#ifndef MBR_PERFBENCH_INPUTS_H_
#define MBR_PERFBENCH_INPUTS_H_

// Request and mutation traces of the serving benchmark.
//
// Every input a run sends is generated here from the workload seed before
// the timer starts; the servers receive only these traces. Generation
// depends on nothing but its arguments, so the same seed yields
// byte-identical traces (TraceDigest() pins that in the self-test).

#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"

namespace mbr::perfbench {

// One read: RECOMMEND(user, topic, top_n = kTopN).
struct ReadOp {
  uint32_t user = 0;
  uint32_t topic = 0;
};

// Reads ask for the top 10, as a "who to follow" panel would.
inline constexpr uint32_t kTopN = 10;

enum class ReadMix {
  // Zipf(1.1) users x Zipf(1.0) topics: a few accounts and topics carry
  // most of the traffic, so the result cache absorbs repeats.
  kZipf,
  // Uniform users x uniform topics: almost every read misses the cache.
  kUniform,
};

// Stream `stream` of the seed's reads; distinct streams are independent.
std::vector<ReadOp> MakeReads(ReadMix mix, uint32_t num_nodes,
                              uint32_t num_topics, size_t count, uint64_t seed,
                              uint32_t stream);

// One mutation frame. A frame carries a single op kind on the wire, so a
// batch is all FOLLOW or all UNFOLLOW.
struct WriteBatch {
  struct Record {
    uint32_t src = 0;
    uint32_t dst = 0;
    uint64_t labels = 0;  // topic bitmask; 0 for UNFOLLOW
  };
  bool follow = true;
  std::vector<Record> records;
};

// Alternating FOLLOW / UNFOLLOW batches of `batch_len` records, starting
// with FOLLOW. FOLLOW records name pairs with no edge in `g`, labeled with
// the followee's topics; UNFOLLOW records name edges of `g`. No pair
// appears twice in the trace, so against `g` every record applies.
std::vector<WriteBatch> MakeWriteBatches(const graph::LabeledGraph& g,
                                         size_t count, size_t batch_len,
                                         uint64_t seed);

// FNV-1a over the traces' bytes, for determinism checks.
uint64_t TraceDigest(const std::vector<ReadOp>& reads);
uint64_t TraceDigest(const std::vector<WriteBatch>& batches);

}  // namespace mbr::perfbench

#endif  // MBR_PERFBENCH_INPUTS_H_
