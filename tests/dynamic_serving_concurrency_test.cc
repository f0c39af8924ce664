// Concurrency test for live mutation under load (ISSUE 6 satellite):
// 4 mutator clients racing 4 reader clients against one mutable server.
// The invariants checked are the ones the epoch design promises even under
// arbitrary interleaving (and TSan watches for data races via the
// `dynamic` ctest label):
//
//   * per connection, observed graph epochs never run backwards — neither
//     on MUTATE_ACKs nor on RESULT replies;
//   * a reply's epoch never exceeds the engine's epoch at the time the
//     reply is observed (no epoch from the future);
//   * the final engine epoch equals the total number of batches that
//     applied at least one record (each applied batch bumps exactly once,
//     rejected-only batches never bump);
//   * readers hit the result cache while batches apply, so the server's
//     event-loop cache probe races Publish too, not only scoring.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "coord/serving_node.h"
#include "graph/labeled_graph.h"
#include "net/client.h"
#include "net/server.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"

namespace mbr::net {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using topics::TopicSet;

constexpr uint32_t kNodes = 32;
constexpr int kMutators = 4;
constexpr int kReaders = 4;
constexpr int kBatchesPerMutator = 24;

LabeledGraph TestGraph() {
  GraphBuilder b(kNodes, 4);
  for (uint32_t u = 0; u + 1 < kNodes; ++u) {
    b.AddEdge(u, u + 1, TopicSet::Single(0));
    if (u + 2 < kNodes) b.AddEdge(u, u + 2, TopicSet::Single(0));
    b.AddEdge(u + 1, u % 3, TopicSet::Single(1));
  }
  return std::move(b).Build();
}

class DynamicServingConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    coord::NodeConfig nc;
    nc.graph = TestGraph();
    nc.engine.num_threads = 2;
    nc.engine.cache_capacity = 256;
    nc.engine.params.beta = 0.1;
    nc.server.dispatch_threads = 4;
    nc.server.max_inflight = 256;
    nc.mutable_serving = true;
    auto node = coord::ServingNode::Build(std::move(nc));
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = std::move(*node);
    ASSERT_TRUE(node_->Start().ok());
    engine_ = &node_->engine();
    applier_ = node_->applier();
  }

  util::Result<Client> Dial() {
    ClientConfig cc;
    cc.port = node_->server().port();
    return Client::Connect(cc);
  }

  std::unique_ptr<coord::ServingNode> node_;
  service::QueryEngine* engine_ = nullptr;
  service::MutationApplier* applier_ = nullptr;
};

TEST_F(DynamicServingConcurrencyTest, EpochsMonotonicPerConnection) {
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> applied_batches{0};
  std::atomic<int> mutators_running{kMutators};
  std::atomic<uint64_t> hits_while_mutating{0};

  auto note_violation = [&violations](const char* what) {
    violations.fetch_add(1);
    ADD_FAILURE() << what;
  };
  // Every client connects before any starts, so the readers race every
  // batch rather than only the tail of the run.
  std::atomic<int> connected{0};
  auto start_together = [&connected] {
    connected.fetch_add(1);
    while (connected.load() < kMutators + kReaders) {
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int m = 0; m < kMutators; ++m) {
    threads.emplace_back([this, m, &note_violation, &applied_batches,
                          &mutators_running, &hits_while_mutating,
                          &start_together] {
      auto client = Dial();
      start_together();
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      util::Rng rng(1000 + static_cast<uint64_t>(m));
      uint64_t last_epoch = 0;
      for (int b = 0; b < kBatchesPerMutator; ++b) {
        // Alternate FOLLOW / UNFOLLOW of the same small pair pool so some
        // records apply, some are rejected (duplicate follow / absent
        // unfollow), and mutators contend on overlapping pairs.
        std::vector<MutationRecord> records;
        for (int r = 0; r < 4; ++r) {
          uint32_t src = static_cast<uint32_t>(rng.UniformU64(kNodes));
          uint32_t dst = static_cast<uint32_t>(rng.UniformU64(kNodes));
          records.push_back({src, dst, 0x3});
        }
        auto ack = (b % 2 == 0) ? client->Follow(records)
                                : client->Unfollow(records);
        ASSERT_TRUE(ack.ok()) << ack.status().ToString();
        EXPECT_EQ(ack->applied + ack->rejected, records.size());
        if (ack->graph_epoch < last_epoch) {
          note_violation("MUTATE_ACK epoch ran backwards on one connection");
        }
        if (ack->graph_epoch > engine_->params_epoch()) {
          note_violation("MUTATE_ACK epoch is from the future");
        }
        last_epoch = ack->graph_epoch;
        if (ack->applied > 0) applied_batches.fetch_add(1);
        // Leave the readers an epoch to hit the cache in: wait (up to
        // 50 ms, however slow the build) for one more hit before the next
        // batch.
        const uint64_t hits = engine_->Stats().cache_hits;
        for (int w = 0; w < 50 && engine_->Stats().cache_hits == hits; ++w) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (mutators_running.fetch_sub(1) == 1) {
        hits_while_mutating.store(engine_->Stats().cache_hits);
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([this, r, &note_violation, &mutators_running,
                          &start_together] {
      auto client = Dial();
      start_together();
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      util::Rng rng(2000 + static_cast<uint64_t>(r));
      uint64_t last_epoch = 0;
      while (mutators_running.load(std::memory_order_relaxed) > 0) {
        uint32_t user = static_cast<uint32_t>(rng.UniformU64(kNodes));
        if (rng.Bernoulli(0.7)) {
          // Asked twice: unless a batch applies in between, the repeat is
          // a cache hit, which the server answers on its event loop.
          RecommendRequest req{user, 0, 8};
          for (int ask = 0; ask < 2; ++ask) {
            auto res = client->RecommendEx(req);
            if (!res.ok()) continue;  // overload shed is legitimate
            if (res->graph_epoch < last_epoch) {
              note_violation("RESULT epoch ran backwards on one connection");
            }
            if (res->graph_epoch > engine_->params_epoch()) {
              note_violation("RESULT epoch is from the future");
            }
            last_epoch = std::max(last_epoch, res->graph_epoch);
          }
        } else {
          std::vector<RecommendRequest> reqs = {
              {user, 0, 4}, {(user + 1) % kNodes, 1, 4}};
          auto res = client->RecommendBatchEx(reqs);
          if (!res.ok()) continue;
          // Lists in one batch may be scored by different workers at
          // different moments, so they need not be mutually ordered — but
          // every one of them post-dates the previous round trip on this
          // connection.
          uint64_t batch_max = last_epoch;
          for (const auto& reply : *res) {
            if (reply.graph_epoch < last_epoch) {
              note_violation("batched RESULT epoch predates an epoch this "
                             "connection already observed");
            }
            batch_max = std::max(batch_max, reply.graph_epoch);
          }
          last_epoch = batch_max;
        }
      }
    });
  }

  for (auto& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0u);
  // Repeats within an epoch hit the result cache while batches apply, so
  // the race above (and its TSan leg) covers the event loop's cache probe
  // as well as scoring.
  EXPECT_GT(hits_while_mutating.load(), 0u);
  // Exactly one epoch bump per applied batch — no lost or spurious bumps.
  EXPECT_EQ(engine_->params_epoch(), applied_batches.load());
  EXPECT_EQ(applier_->batches_applied(), applied_batches.load());
  // The workload really did mutate (FOLLOWs of absent random pairs apply
  // with overwhelming probability across 96 batches).
  EXPECT_GT(applied_batches.load(), 0u);

  // After the dust settles, a fresh connection sees the final epoch.
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  auto res = client->RecommendEx({1, 0, 8});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->graph_epoch, engine_->params_epoch());
}

}  // namespace
}  // namespace mbr::net
