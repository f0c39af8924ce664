#include "inputs.h"

#include <set>
#include <utility>

#include "util/rng.h"
#include "util/zipf.h"

namespace mbr::perfbench {

namespace {

// Salts that keep the streams of one seed independent: writes use the
// even salt 2, read stream s the odd salt 1 + 2s.
constexpr uint64_t kReadSalt = 1;
constexpr uint64_t kWriteSalt = 2;

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace

std::vector<ReadOp> MakeReads(ReadMix mix, uint32_t num_nodes,
                              uint32_t num_topics, size_t count, uint64_t seed,
                              uint32_t stream) {
  util::Rng rng = util::Rng(seed).Fork(kReadSalt + 2 * uint64_t{stream});
  std::vector<ReadOp> out(count);
  if (mix == ReadMix::kZipf) {
    util::ZipfDistribution users(num_nodes, 1.1);
    util::ZipfDistribution topics(num_topics, 1.0);
    for (ReadOp& op : out) {
      op.user = users.Sample(&rng);
      op.topic = topics.Sample(&rng);
    }
  } else {
    for (ReadOp& op : out) {
      op.user = static_cast<uint32_t>(rng.UniformU64(num_nodes));
      op.topic = static_cast<uint32_t>(rng.UniformU64(num_topics));
    }
  }
  return out;
}

std::vector<WriteBatch> MakeWriteBatches(const graph::LabeledGraph& g,
                                         size_t count, size_t batch_len,
                                         uint64_t seed) {
  util::Rng rng = util::Rng(seed).Fork(kWriteSalt);
  const uint32_t n = g.num_nodes();
  std::set<std::pair<uint32_t, uint32_t>> used;
  std::vector<WriteBatch> out(count);
  for (size_t b = 0; b < count; ++b) {
    WriteBatch& batch = out[b];
    batch.follow = b % 2 == 0;
    while (batch.records.size() < batch_len) {
      const auto src = static_cast<uint32_t>(rng.UniformU64(n));
      WriteBatch::Record rec;
      rec.src = src;
      if (batch.follow) {
        rec.dst = static_cast<uint32_t>(rng.UniformU64(n));
        if (rec.dst == src || g.HasEdge(src, rec.dst)) continue;
        rec.labels = g.NodeLabels(rec.dst).bits();
        if (rec.labels == 0) continue;
      } else {
        const auto out_edges = g.OutNeighbors(src);
        if (out_edges.empty()) continue;
        rec.dst = out_edges[rng.UniformU64(out_edges.size())];
      }
      if (!used.insert({rec.src, rec.dst}).second) continue;
      batch.records.push_back(rec);
    }
  }
  return out;
}

uint64_t TraceDigest(const std::vector<ReadOp>& reads) {
  uint64_t h = kFnvBasis;
  for (const ReadOp& op : reads) {
    h = Fnv1a(h, &op.user, sizeof(op.user));
    h = Fnv1a(h, &op.topic, sizeof(op.topic));
  }
  return h;
}

uint64_t TraceDigest(const std::vector<WriteBatch>& batches) {
  uint64_t h = kFnvBasis;
  for (const WriteBatch& b : batches) {
    const uint8_t kind = b.follow ? 1 : 0;
    h = Fnv1a(h, &kind, 1);
    for (const WriteBatch::Record& r : b.records) {
      h = Fnv1a(h, &r.src, sizeof(r.src));
      h = Fnv1a(h, &r.dst, sizeof(r.dst));
      h = Fnv1a(h, &r.labels, sizeof(r.labels));
    }
  }
  return h;
}

}  // namespace mbr::perfbench
