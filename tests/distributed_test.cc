#include "distributed/partition.h"

#include <set>

#include <gtest/gtest.h>

#include "datagen/twitter_generator.h"

namespace mbr::distributed {
namespace {

const datagen::GeneratedDataset& Dataset() {
  static const datagen::GeneratedDataset& ds =
      *new datagen::GeneratedDataset([] {
        datagen::TwitterConfig c;
        c.num_nodes = 2000;
        return datagen::GenerateTwitter(c);
      }());
  return ds;
}

PartitionConfig DefaultConfig() {
  PartitionConfig c;
  c.num_partitions = 4;
  return c;
}

// ---------- Partitioning ----------

TEST(PartitionTest, AllStrategiesAssignEveryNode) {
  const auto& g = Dataset().graph;
  for (auto s : {PartitionStrategy::kHash, PartitionStrategy::kBfsChunks,
                 PartitionStrategy::kCommunity}) {
    Partitioning p = PartitionGraph(g, s, DefaultConfig());
    ASSERT_EQ(p.part_of.size(), g.num_nodes()) << PartitionStrategyName(s);
    std::set<uint32_t> used;
    for (uint32_t part : p.part_of) {
      ASSERT_LT(part, 4u);
      used.insert(part);
    }
    EXPECT_GT(used.size(), 1u) << PartitionStrategyName(s);
    EXPECT_GT(p.edge_cut, 0.0);
    EXPECT_LT(p.edge_cut, 1.0);
    EXPECT_GE(p.balance, 1.0);
  }
}

TEST(PartitionTest, HashIsBalanced) {
  const auto& g = Dataset().graph;
  Partitioning p = PartitionGraph(g, PartitionStrategy::kHash,
                                  DefaultConfig());
  EXPECT_LT(p.balance, 1.15);
}

TEST(PartitionTest, CommunityCutsFewerEdgesThanHash) {
  const auto& g = Dataset().graph;
  Partitioning hash = PartitionGraph(g, PartitionStrategy::kHash,
                                     DefaultConfig());
  Partitioning lpa = PartitionGraph(g, PartitionStrategy::kCommunity,
                                    DefaultConfig());
  // Hash cut should be ~ (parts-1)/parts = 0.75; LPA must beat it clearly.
  EXPECT_GT(hash.edge_cut, 0.65);
  EXPECT_LT(lpa.edge_cut, hash.edge_cut * 0.9);
}

TEST(PartitionTest, CommunityRespectsCapacity) {
  const auto& g = Dataset().graph;
  PartitionConfig c = DefaultConfig();
  c.capacity_slack = 1.2;
  Partitioning p = PartitionGraph(g, PartitionStrategy::kCommunity, c);
  EXPECT_LE(p.balance, 1.25);  // slack + the initial assignment wiggle
}

TEST(PartitionTest, Deterministic) {
  const auto& g = Dataset().graph;
  for (auto s : {PartitionStrategy::kHash, PartitionStrategy::kBfsChunks,
                 PartitionStrategy::kCommunity}) {
    Partitioning a = PartitionGraph(g, s, DefaultConfig());
    Partitioning b = PartitionGraph(g, s, DefaultConfig());
    EXPECT_EQ(a.part_of, b.part_of) << PartitionStrategyName(s);
  }
}

TEST(PartitionTest, StatsComputation) {
  // Two components of 2 nodes: partition along / across them.
  graph::GraphBuilder b(4, 2);
  b.AddEdge(0, 1, topics::TopicSet::Single(0));
  b.AddEdge(2, 3, topics::TopicSet::Single(0));
  graph::LabeledGraph g = std::move(b).Build();
  Partitioning p;
  p.num_partitions = 2;
  p.part_of = {0, 0, 1, 1};
  ComputePartitionStats(g, &p);
  EXPECT_DOUBLE_EQ(p.edge_cut, 0.0);
  EXPECT_DOUBLE_EQ(p.balance, 1.0);
  p.part_of = {0, 1, 0, 1};
  ComputePartitionStats(g, &p);
  EXPECT_DOUBLE_EQ(p.edge_cut, 1.0);
}

}  // namespace
}  // namespace mbr::distributed
