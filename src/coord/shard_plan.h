#ifndef MBR_COORD_SHARD_PLAN_H_
#define MBR_COORD_SHARD_PLAN_H_

// The shard plan artifact — the single source of truth a partitioned
// deployment is wired from (DESIGN.md §6.7).
//
// A plan binds together (a) the node→shard assignment produced by one of
// the distributed:: partitioners (plus the strategy that produced it and
// its quality stats), (b) the halo depth the shard subgraphs were planned
// for (how many out-hops beyond owned nodes each shard replicates so a
// home-shard exploration is byte-identical to single-node, see
// shard_replica.h), and (c) the per-shard endpoint table the router
// forwards to. `mbrec shard-plan` writes one; `mbrec serve
// --shard <i>` and `mbrec route` consume it.
//
// Persistence uses the util::serde container (magic + kind + per-section
// CRC32, bounded reads): a malformed, truncated, or corrupted plan yields
// a util::Status, never UB — tests/serde_corruption_test.cc sweeps every
// truncation length and bit flip over a serialized plan.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "distributed/partition.h"
#include "util/status.h"

namespace mbr::util::serde {
class Reader;
class Writer;
}  // namespace mbr::util::serde

namespace mbr::coord {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint32_t port = 0;
};

class ShardPlan {
 public:
  // Current artifact format version (serde container header).
  static constexpr uint32_t kFormatVersion = 1;
  // Decode-side bounds: shards per plan, bytes per endpoint host, nodes
  // per assignment. Semantic caps checked before any allocation.
  static constexpr uint32_t kMaxShards = 4096;
  static constexpr uint32_t kMaxHostBytes = 256;
  static constexpr uint64_t kMaxNodes = uint64_t{1} << 31;

  ShardPlan() = default;
  ShardPlan(distributed::Partitioning partitioning,
            distributed::PartitionStrategy strategy, uint32_t halo_depth,
            uint32_t num_topics, std::vector<ShardEndpoint> endpoints);

  uint32_t num_shards() const { return partitioning_.num_partitions; }
  uint64_t num_nodes() const { return partitioning_.part_of.size(); }
  uint32_t num_topics() const { return num_topics_; }
  uint32_t halo_depth() const { return halo_depth_; }
  distributed::PartitionStrategy strategy() const { return strategy_; }
  const distributed::Partitioning& partitioning() const {
    return partitioning_;
  }
  const std::vector<ShardEndpoint>& endpoints() const { return endpoints_; }

  // Home shard of a node (and of a landmark's stored lists).
  uint32_t ShardOf(graph::NodeId v) const { return partitioning_.part_of[v]; }
  // Ownership mask of one shard, in the full node universe.
  std::vector<bool> OwnedMask(uint32_t shard) const;

  // The router may learn real ports only after shards bind ephemeral
  // ports; tools and tests overwrite the table in place.
  void SetEndpoint(uint32_t shard, ShardEndpoint ep);

  // Serialization round-trips byte-stably: Serialize(LoadFromBuffer(
  // Serialize(p))) == Serialize(p) (pinned by tests/coord_shard_plan_test).
  std::vector<uint8_t> Serialize() const;
  util::Status SaveTo(const std::string& path) const;
  static util::Result<ShardPlan> LoadFrom(const std::string& path);
  static util::Result<ShardPlan> LoadFromBuffer(std::span<const uint8_t> data);

 private:
  // Builds the serde container (shared by Serialize and SaveTo so the file
  // and the in-memory buffer can never drift).
  util::serde::Writer BuildContainer() const;
  // Decodes a validated serde container (shared by LoadFrom/LoadFromBuffer).
  static util::Result<ShardPlan> FromReader(util::serde::Reader r);

  distributed::Partitioning partitioning_;
  distributed::PartitionStrategy strategy_ =
      distributed::PartitionStrategy::kHash;
  uint32_t halo_depth_ = 1;
  uint32_t num_topics_ = 0;
  std::vector<ShardEndpoint> endpoints_;
};

}  // namespace mbr::coord

#endif  // MBR_COORD_SHARD_PLAN_H_
