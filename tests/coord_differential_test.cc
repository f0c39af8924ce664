// The coordinator tier's headline oracle: a routed query must be
// BYTE-IDENTICAL to the same query against a single-node QueryEngine over
// the full graph — ids, order, and raw score bits — for every
// PartitionStrategy and shard count, with landmark shards (each holding
// the full landmark index) and with exact shards. The router forwards
// every query to its home shard, which answers it from its halo.
// "Byte-identical" is literal: both ranked lists are re-encoded with the
// RESULT codec at fixed epoch, tier and trailer, and the encodings must
// be equal.
//
// A second suite kills a shard out from under the router and checks the
// partial-result policy end to end: queries homed on the dead shard
// degrade (trailer partial=1, shards_answered < shards_total), the client
// call still succeeds — never a hang, never a crash — and
// mbr_coord_partial_total is bumped on the router's registry, while
// queries homed on live shards are answered in full. A shard that accepts
// connections and never answers is cut off by the router's
// shard_timeout_ms backstop under the same policy. A client deadline is a
// hard cutoff on the shard RPC, dial included: a silent or late home shard
// costs the client DEADLINE_EXCEEDED at its deadline.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coord/router.h"
#include "coord/serving_node.h"
#include "coord/shard_plan.h"
#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "distributed/partition.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "net/server.h"
#include "routed_stack.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"

namespace mbr::coord {
namespace {

using distributed::PartitionStrategy;
using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicId;

core::ScoreParams Params() {
  core::ScoreParams p;
  p.beta = 0.1;
  return p;
}

// The shared full-graph state every stack and every reference engine is
// built from (one dataset + one global landmark index for the suite).
struct Corpus {
  Corpus() {
    datagen::TwitterConfig cfg;
    cfg.num_nodes = 260;
    dataset = std::make_unique<datagen::GeneratedDataset>(
        datagen::GenerateTwitter(cfg));
    graph = &dataset->graph;
    authority = std::make_unique<core::AuthorityIndex>(*graph);
    landmark::SelectionConfig sel;
    sel.num_landmarks = 24;
    std::vector<NodeId> landmarks =
        landmark::SelectLandmarks(*graph,
                                  landmark::SelectionStrategy::kOutDeg, sel)
            .landmarks;
    landmark::LandmarkIndexConfig icfg;
    icfg.top_n = 40;
    icfg.params = Params();
    icfg.num_threads = 1;
    index = std::make_unique<landmark::LandmarkIndex>(
        *graph, *authority, topics::TwitterSimilarity(), landmarks, icfg);
  }

  service::EngineConfig EngineConfigFor(bool landmark_mode) const {
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 0;
    ec.params = Params();
    if (landmark_mode) ec.landmarks = index.get();
    return ec;
  }

  // A shard node serving EngineConfigFor(landmark_mode) over a copy of
  // the corpus.
  NodeConfig NodeConfigFor(bool landmark_mode) const {
    NodeConfig nc;
    nc.graph = *graph;
    if (landmark_mode) nc.index = *index;
    nc.engine = EngineConfigFor(landmark_mode);
    nc.server.dispatch_threads = 1;
    return nc;
  }

  std::unique_ptr<datagen::GeneratedDataset> dataset;
  const LabeledGraph* graph = nullptr;
  std::unique_ptr<core::AuthorityIndex> authority;
  std::unique_ptr<landmark::LandmarkIndex> index;
};

const Corpus& SharedCorpus() {
  static const Corpus* corpus = new Corpus();
  return *corpus;
}

// One complete partitioned deployment on loopback: N shard nodes over
// ephemeral ports plus a router forwarding to them.
using Stack = RoutedStack;

// `ladder_shard` (when not UINT32_MAX) gives that one shard a degradation
// ladder pinned at the approx rung (approx_at = 0), so its replies carry
// served_tier = 1 deterministically — the tier-merge tests' pressured
// shard. `degrade_partial` feeds RouterConfig::degrade_partial.
std::unique_ptr<Stack> MakeStack(uint32_t shards, PartitionStrategy strategy,
                                 bool landmark_mode, uint32_t halo_depth,
                                 uint32_t ladder_shard = UINT32_MAX,
                                 bool degrade_partial = true) {
  const Corpus& c = SharedCorpus();
  RouterConfig rcfg;
  rcfg.degrade_partial = degrade_partial;
  rcfg.shard_timeout_ms = 5000;
  auto stack = std::make_unique<Stack>(
      Stack::MakePlan(*c.graph, strategy, shards, halo_depth),
      [&](uint32_t s) {
        NodeConfig nc = c.NodeConfigFor(landmark_mode);
        if (s == ladder_shard) {
          nc.index = *c.index;  // the ladder's middle rung needs landmarks
          nc.engine.degrade.enabled = true;
          nc.engine.degrade.pressure.approx_at = 0;  // pinned at approx
        }
        return nc;
      },
      rcfg);
  if (stack->router == nullptr) return nullptr;
  return stack;
}

util::Result<net::Client> Dial(const Stack& stack) {
  net::ClientConfig cc;
  cc.port = stack.router->port();
  return net::Client::Connect(cc);
}

// A client connected straight to shard `s`, bypassing the router.
util::Result<net::Client> DialShard(const Stack& stack, uint32_t s) {
  net::ClientConfig cc;
  cc.port = stack.shards[s]->server().port();
  return net::Client::Connect(cc);
}

net::RecommendRequest Probe(uint32_t user, uint32_t topic, uint32_t top_n) {
  net::RecommendRequest req;
  req.user = user;
  req.topic = topic;
  req.top_n = top_n;
  return req;
}

// The lowest-numbered user homed on `shard`.
uint32_t UserOn(const Stack& stack, uint32_t shard) {
  uint32_t u = 0;
  while (stack.plan.ShardOf(u) != shard) ++u;
  return u;
}

uint64_t CounterValue(Router& router, const char* name) {
  return router.registry().GetCounter(name, "")->Value();
}

// Canonical byte encoding of a ranked list: the RESULT codec with the
// epoch, tier and trailer left at their defaults, so only ids, order, and
// raw f64 score bits can differ.
std::vector<uint8_t> CanonicalBytes(const net::RankedList& list) {
  return net::EncodeResult(list);
}

std::vector<net::RecommendRequest> ProbePanel(uint64_t seed, int count) {
  const Corpus& c = SharedCorpus();
  util::Rng rng(seed);
  std::vector<net::RecommendRequest> probes;
  for (int i = 0; i < count; ++i) {
    net::RecommendRequest req;
    req.user = static_cast<uint32_t>(rng.UniformU64(c.graph->num_nodes()));
    req.topic = static_cast<uint32_t>(
        rng.UniformU64(static_cast<uint64_t>(c.graph->num_topics())));
    req.top_n = 10;
    // Every third probe carries an exclusion list so the merge path's
    // RankingBuilder filtering is exercised over the wire too; a sprinkle
    // of (generous) client deadlines exercises the deadline propagation
    // without ever expiring.
    if (i % 3 == 0) {
      for (int k = 0; k < 4; ++k) {
        req.exclude.push_back(
            static_cast<uint32_t>(rng.UniformU64(c.graph->num_nodes())));
      }
    }
    if (i % 4 == 0) req.deadline_ms = 10000;
    probes.push_back(std::move(req));
  }
  return probes;
}

core::Query ToQuery(const net::RecommendRequest& req) {
  core::Query q;
  q.user = req.user;
  q.topic = static_cast<TopicId>(req.topic);
  q.top_n = req.top_n;
  q.exclude.assign(req.exclude.begin(), req.exclude.end());
  return q;
}

void ExpectRoutedMatchesReference(net::Client& client,
                                  service::QueryEngine& reference,
                                  const net::RecommendRequest& req,
                                  const std::string& context) {
  auto routed = client.RecommendEx(req);
  ASSERT_TRUE(routed.ok()) << context << ": " << routed.status().ToString();
  EXPECT_EQ(routed->coord.partial, 0u) << context;
  auto expect = reference.Recommend(ToQuery(req));
  ASSERT_TRUE(expect.ok()) << context << ": " << expect.status().ToString();
  ASSERT_EQ(CanonicalBytes(routed->entries),
            CanonicalBytes(expect->ranking.entries))
      << context << ": routed reply diverged from single-node, user="
      << req.user << " topic=" << req.topic;
}

TEST(CoordDifferentialTest, LandmarkRoutedIsByteIdenticalForEveryStrategy) {
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  for (uint32_t shards : {2u, 4u}) {
    for (auto strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kBfsChunks,
          PartitionStrategy::kCommunity,
          PartitionStrategy::kCommunityPopularity}) {
      const std::string context =
          std::string(distributed::PartitionStrategyName(strategy)) + "/" +
          std::to_string(shards) + " shards";
      auto stack = MakeStack(shards, strategy, /*landmark_mode=*/true,
                             /*halo_depth=*/1);
      ASSERT_NE(stack, nullptr) << context;
      auto client = Dial(*stack);
      ASSERT_TRUE(client.ok()) << context << ": "
                               << client.status().ToString();
      for (const auto& req : ProbePanel(/*seed=*/31 + shards, /*count=*/12)) {
        ExpectRoutedMatchesReference(*client, reference, req, context);
      }
    }
  }
}

TEST(CoordDifferentialTest, ExactForwardingIsByteIdentical) {
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/false));
  // Exact exploration runs to params.max_depth, so the halo must hold
  // every edge within max_depth - 1 hops of an owned node.
  const uint32_t halo = Params().max_depth - 1;
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/false, halo);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const auto& req : ProbePanel(/*seed=*/77, /*count=*/10)) {
    ExpectRoutedMatchesReference(*client, reference, req, "exact/2 shards");
  }
}

TEST(CoordDifferentialTest, BatchRoutedPreservesOrderAndBytes) {
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  auto stack = MakeStack(/*shards=*/3, PartitionStrategy::kBfsChunks,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<net::RecommendRequest> batch = ProbePanel(/*seed=*/5, 8);
  std::vector<bool> homes(stack->plan.num_shards(), false);
  for (const net::RecommendRequest& r : batch) {
    homes[stack->plan.ShardOf(r.user)] = true;
  }
  const uint64_t distinct_homes =
      static_cast<uint64_t>(std::count(homes.begin(), homes.end(), true));
  ASSERT_GE(distinct_homes, 2u) << "the panel must mix home shards";
  const uint64_t fanout_before =
      CounterValue(*stack->router, "mbr_coord_fanout_total");
  auto routed = client->RecommendBatchEx(batch);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed->size(), batch.size());
  // One RECOMMEND_BATCH per home shard, not one RPC per query.
  EXPECT_EQ(CounterValue(*stack->router, "mbr_coord_fanout_total") -
                fanout_before,
            distinct_homes);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto expect = reference.Recommend(ToQuery(batch[i]));
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ((*routed)[i].coord.partial, 0u) << "batch slot " << i;
    ASSERT_EQ(CanonicalBytes((*routed)[i].entries),
              CanonicalBytes(expect->ranking.entries))
        << "batch slot " << i << " user=" << batch[i].user;
  }
}

TEST(CoordDifferentialTest, ShardsRefuseUsersTheyDoNotHome) {
  // A shard's halo holds the edges of its own users' explorations only,
  // so a shard server answers those users — byte-identically — and
  // refuses everyone else, landmark and exact shards alike.
  const Corpus& c = SharedCorpus();
  for (bool landmark_mode : {true, false}) {
    const std::string context = landmark_mode ? "landmark" : "exact";
    service::QueryEngine reference(*c.graph, *c.authority,
                                   topics::TwitterSimilarity(),
                                   c.EngineConfigFor(landmark_mode));
    const uint32_t halo = landmark_mode ? 1 : Params().max_depth - 1;
    auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                           landmark_mode, halo);
    ASSERT_NE(stack, nullptr) << context;
    auto shard0 = DialShard(*stack, 0);
    ASSERT_TRUE(shard0.ok()) << context << ": "
                             << shard0.status().ToString();
    const uint32_t on0 = UserOn(*stack, 0);
    const uint32_t on1 = UserOn(*stack, 1);

    auto misrouted = shard0->RecommendEx(Probe(on1, /*topic=*/0, 10));
    ASSERT_FALSE(misrouted.ok())
        << context << ": shard 0 answered user " << on1 << ", homed on 1";
    EXPECT_EQ(misrouted.status().code(), util::StatusCode::kInvalidArgument)
        << context;
    EXPECT_NE(misrouted.status().message().find("not homed on shard 0"),
              std::string::npos)
        << context << ": " << misrouted.status().ToString();

    auto mixed =
        shard0->RecommendBatchEx({Probe(on0, 0, 10), Probe(on1, 0, 10)});
    ASSERT_FALSE(mixed.ok()) << context << ": a batch mixing homes was served";
    EXPECT_EQ(mixed.status().code(), util::StatusCode::kInvalidArgument)
        << context;

    // The same connection still serves the shard's own users.
    int homed = 0;
    for (const auto& req : ProbePanel(/*seed=*/21, /*count=*/12)) {
      if (stack->plan.ShardOf(req.user) != 0) continue;
      ++homed;
      auto direct = shard0->RecommendEx(req);
      ASSERT_TRUE(direct.ok()) << context << ": "
                               << direct.status().ToString();
      auto expect = reference.Recommend(ToQuery(req));
      ASSERT_TRUE(expect.ok()) << context;
      ASSERT_EQ(CanonicalBytes(direct->entries),
                CanonicalBytes(expect->ranking.entries))
          << context << ": direct reply diverged from single-node, user="
          << req.user << " topic=" << req.topic;
    }
    EXPECT_GE(homed, 2) << context << ": the panel must reach shard 0";
  }
}

TEST(CoordDifferentialTest, LadderShardNeedsTheExactHalo) {
  // With the degradation ladder on, a landmark shard's unpressured tier is
  // exact scoring, which explores to params.max_depth. A plan whose halo
  // covers only the landmark exploration is refused; one that covers
  // max_depth - 1 hops answers the shard's users byte-identically to a
  // single-node ladder engine, at the exact tier.
  const Corpus& c = SharedCorpus();
  service::EngineConfig ec = c.EngineConfigFor(/*landmark_mode=*/true);
  ec.degrade.enabled = true;  // default watermarks: never pressured
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(), ec);
  for (uint32_t halo : {1u, Params().max_depth - 1}) {
    const std::string context = "halo " + std::to_string(halo);
    ShardPlan plan = RoutedStack::MakePlan(
        *c.graph, PartitionStrategy::kCommunity, /*shards=*/2, halo);
    NodeConfig nc = c.NodeConfigFor(/*landmark_mode=*/true);
    nc.engine = ec;
    nc.plan = &plan;
    auto ctx = ServingNode::Build(std::move(nc));
    if (halo < Params().max_depth - 1) {
      ASSERT_FALSE(ctx.ok())
          << context << ": a ladder shard was built over a halo too shallow "
          << "for its exact tier";
      EXPECT_EQ(ctx.status().code(), util::StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(ctx.ok()) << context << ": " << ctx.status().ToString();
    int homed = 0;
    for (const auto& req : ProbePanel(/*seed=*/41, /*count=*/12)) {
      if (plan.ShardOf(req.user) != 0) continue;
      ++homed;
      auto got = (*ctx)->engine().Recommend(ToQuery(req));
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      EXPECT_EQ(got->meta.served_tier, core::Tier::kExact) << context;
      auto expect = reference.Recommend(ToQuery(req));
      ASSERT_TRUE(expect.ok()) << context;
      ASSERT_EQ(CanonicalBytes(got->ranking.entries),
                CanonicalBytes(expect->ranking.entries))
          << context << ": ladder shard diverged from single-node, user="
          << req.user << " topic=" << req.topic;
    }
    EXPECT_GE(homed, 2) << context << ": the panel must reach shard 0";
  }
}

TEST(CoordDifferentialTest, RoutedStatsRollupCountsAllShards) {
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kHash,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());
  for (const auto& req : ProbePanel(/*seed=*/9, 4)) {
    auto r = client->RecommendEx(req);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->coord.shards_total, 2u);
  }
  // The STATS rollup answered over the wire sums the shard snapshots.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->shards_total, 2u);
  EXPECT_EQ(stats->shards_up, 2u);
  EXPECT_GE(stats->queries, 4u);
}

TEST(CoordPartialPolicyTest, KilledShardDegradesToPartialNeverFails) {
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());

  // Warm the pool so the kill also exercises dead pooled connections, not
  // just fresh connect refusals.
  auto warm = client->RecommendEx({/*user=*/0, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Kill shard 1.
  stack->shards[1]->server().RequestStop();
  stack->shards[1]->server().Wait();

  // A user homed on the dead shard: the reply must degrade to a partial
  // merge — success with partial=1, zero shards answered — not an error,
  // not a hang.
  uint32_t victim = 0;
  while (stack->plan.ShardOf(victim) != 1) ++victim;
  auto partial = client->RecommendEx({victim, /*topic=*/0, /*top_n=*/10});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->coord.partial, 1u);
  EXPECT_LT(partial->coord.shards_answered, partial->coord.shards_total);

  // Users homed on the live shard still answer (SurvivingShardAnswersInFull
  // checks their bytes).
  uint32_t survivor = 0;
  while (stack->plan.ShardOf(survivor) != 0) ++survivor;
  auto alive = client->RecommendEx({survivor, /*topic=*/1, /*top_n=*/10});
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();

  // The degradation is visible in the mbr_coord_* series.
  obs::Counter* partial_total = stack->router->registry().GetCounter(
      "mbr_coord_partial_total", "");
  ASSERT_NE(partial_total, nullptr);
  EXPECT_GE(partial_total->Value(), 1u);
  obs::Counter* shard_errors = stack->router->registry().GetCounter(
      "mbr_coord_shard_errors_total", "");
  EXPECT_GE(shard_errors->Value(), 1u);
}

// A loopback socket that listens and never accepts: the kernel completes
// connects into its backlog and buffers requests nobody reads, so a shard
// at this endpoint accepts and never answers. Once the backlog is full,
// the kernel drops further SYNs, so a connect to it never completes.
class SilentShard {
 public:
  explicit SilentShard(int backlog = 16) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(fd_, backlog), 0);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentShard() {
    for (int fd : fillers_) ::close(fd);
    ::close(fd_);
  }
  SilentShard(const SilentShard&) = delete;
  SilentShard& operator=(const SilentShard&) = delete;

  uint16_t port() const { return port_; }

  // Connects until a connect stays pending for 200 ms: from then on the
  // backlog is full and a dial to this endpoint hangs. False if it never
  // filled within 32 connects.
  bool FillBacklog() {
    for (int i = 0; i < 32; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (fd < 0) return false;
      fillers_.push_back(fd);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        continue;
      }
      if (errno != EINPROGRESS) return false;
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 200) == 0) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  std::vector<int> fillers_;
};

TEST(CoordPartialPolicyTest, SilentShardIsCutOffByTheTimeoutBackstop) {
  // With no client deadline, the shard RPC's only bound is the router's
  // shard_timeout_ms: a home shard that accepts and never answers costs
  // its users one backstop, then degrades like a dead shard (partial, or
  // an ERROR with degrade off). The live shard's users are unaffected.
  constexpr uint32_t kBackstopMs = 300;
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  for (bool degrade_partial : {true, false}) {
    const std::string context =
        degrade_partial ? "degrade partial" : "degrade off";
    auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                           /*landmark_mode=*/true, /*halo_depth=*/1);
    ASSERT_NE(stack, nullptr) << context;
    SilentShard silent;
    stack->router->RequestStop();
    stack->router->Wait();
    stack->plan.SetEndpoint(1, {"127.0.0.1", silent.port()});
    RouterConfig rcfg;
    rcfg.port = 0;
    rcfg.degrade_partial = degrade_partial;
    rcfg.shard_timeout_ms = kBackstopMs;
    stack->router = std::make_unique<Router>(stack->plan, rcfg);
    ASSERT_TRUE(stack->router->Start().ok()) << context;
    auto client = Dial(*stack);
    ASSERT_TRUE(client.ok()) << context << ": " << client.status().ToString();

    const uint64_t partial_before =
        CounterValue(*stack->router, "mbr_coord_partial_total");
    const auto start = std::chrono::steady_clock::now();
    auto lost = client->RecommendEx(Probe(UserOn(*stack, 1), 0, 10));
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(waited_ms, kBackstopMs) << context;
    EXPECT_LT(waited_ms, kBackstopMs + 2000) << context;
    if (degrade_partial) {
      ASSERT_TRUE(lost.ok()) << context << ": " << lost.status().ToString();
      EXPECT_EQ(lost->coord.partial, 1u) << context;
      EXPECT_TRUE(lost->entries.empty()) << context;
      EXPECT_EQ(CounterValue(*stack->router, "mbr_coord_partial_total"),
                partial_before + 1)
          << context;
    } else {
      ASSERT_FALSE(lost.ok()) << context << ": a lost shard was merged";
      EXPECT_NE(lost.status().message().find("home shard 1 lost"),
                std::string::npos)
          << context << ": " << lost.status().ToString();
      // The wire code is UNAVAILABLE, not INTERNAL: a client can tell a
      // lost shard from a router fault.
      EXPECT_EQ(lost.status().code(), util::StatusCode::kUnavailable)
          << context << ": " << lost.status().ToString();
      EXPECT_EQ(lost.status().message().rfind("UNAVAILABLE from server", 0),
                0u)
          << context << ": " << lost.status().ToString();
      EXPECT_EQ(CounterValue(*stack->router, "mbr_coord_partial_total"),
                partial_before)
          << context;
    }

    ExpectRoutedMatchesReference(*client, reference,
                                 Probe(UserOn(*stack, 0), 0, 10), context);
  }

  // A client deadline shorter than the backstop bounds the shard RPC too,
  // dial included: a silent shard costs the client its deadline_ms, not
  // shard_timeout_ms or the 2 s connect timeout, and the expiry is relayed
  // as on one node. The shard either accepts and never answers, or has a
  // full backlog, so the router's dial never completes.
  constexpr uint32_t kLongBackstopMs = 600;
  constexpr uint32_t kClientDeadlineMs = 100;
  for (bool full_backlog : {false, true}) {
    const std::string context = full_backlog ? "full backlog" : "accepts";
    auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                           /*landmark_mode=*/true, /*halo_depth=*/1);
    ASSERT_NE(stack, nullptr) << context;
    SilentShard silent(/*backlog=*/full_backlog ? 0 : 16);
    if (full_backlog) {
      ASSERT_TRUE(silent.FillBacklog()) << context;
    }
    stack->router->RequestStop();
    stack->router->Wait();
    stack->plan.SetEndpoint(1, {"127.0.0.1", silent.port()});
    RouterConfig rcfg;
    rcfg.port = 0;
    rcfg.shard_timeout_ms = kLongBackstopMs;
    stack->router = std::make_unique<Router>(stack->plan, rcfg);
    ASSERT_TRUE(stack->router->Start().ok()) << context;
    auto client = Dial(*stack);
    ASSERT_TRUE(client.ok()) << context << ": " << client.status().ToString();
    net::RecommendRequest req = Probe(UserOn(*stack, 1), 0, 10);
    req.deadline_ms = kClientDeadlineMs;
    const auto start = std::chrono::steady_clock::now();
    auto late = client->RecommendEx(req);
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_FALSE(late.ok()) << context << ": a silent shard answered";
    EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded)
        << context << ": " << late.status().ToString();
    EXPECT_GE(waited_ms, kClientDeadlineMs) << context;
    EXPECT_LT(waited_ms, 300) << context;
  }
}

TEST(CoordPartialPolicyTest, LiveShardAnsweringPastTheDeadlineIsCutOff) {
  // A routed deadline is a hard cutoff, where a single node's is checked
  // only at admission: a single node answers a query its dispatcher
  // started in time however late it finishes, but the router stops
  // waiting at the client's deadline. So a live home shard still scoring
  // then costs the client DEADLINE_EXCEEDED, not a late ranking. The
  // shard stays live and answers in full once it is released.
  constexpr uint32_t kClientDeadlineMs = 100;
  std::atomic<bool> hold{false};
  std::atomic<bool> entered{false};
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  // Installed before any query reaches shard 1. While armed it holds a
  // scored query inside the engine (after admission, once it pinned its
  // generation) for 500 ms, then lets it finish; the probe does not decide
  // the tier, so no reply changes tier.
  stack->shards[1]->engine().SetStaleProbe([&hold, &entered](bool) {
    if (hold.load()) {
      entered.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const uint32_t on1 = UserOn(*stack, 1);
  net::RecommendRequest req = Probe(on1, 0, 10);
  req.deadline_ms = kClientDeadlineMs;
  hold.store(true);
  const auto start = std::chrono::steady_clock::now();
  auto late = client->RecommendEx(req);
  const auto waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  hold.store(false);
  ASSERT_FALSE(late.ok()) << "the router waited out a late shard";
  EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded)
      << late.status().ToString();
  EXPECT_GE(waited_ms, kClientDeadlineMs);
  EXPECT_LT(waited_ms, 300);

  // The held query finishes; the shard then answers the next query (no
  // deadline) in full, and it had started the held one.
  ExpectRoutedMatchesReference(*client, reference, Probe(on1, 1, 10),
                               "after the hold");
  EXPECT_TRUE(entered.load()) << "the shard never started the held query";
}

TEST(CoordPartialPolicyTest, SurvivingShardAnswersInFull) {
  // Every landmark shard holds the full landmark index, so losing shard 1
  // costs only the queries homed there: users homed on shard 0 keep
  // complete, byte-identical lists even when their exploration meets
  // landmarks homed on shard 1.
  const Corpus& c = SharedCorpus();
  service::QueryEngine reference(*c.graph, *c.authority,
                                 topics::TwitterSimilarity(),
                                 c.EngineConfigFor(/*landmark_mode=*/true));
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());

  stack->shards[1]->server().RequestStop();
  stack->shards[1]->server().Wait();

  int survivors = 0;
  for (const auto& req : ProbePanel(/*seed=*/13, /*count=*/24)) {
    if (stack->plan.ShardOf(req.user) != 0) continue;
    ExpectRoutedMatchesReference(*client, reference, req, "shard 1 down");
    ++survivors;
  }
  EXPECT_GE(survivors, 4) << "the panel must reach the live shard";

  // A batch mixing homes: only the dead shard's query degrades. The frame
  // trailer is partial; the live shard's lists are complete.
  const uint32_t on0 = UserOn(*stack, 0);
  const uint32_t on1 = UserOn(*stack, 1);
  const std::vector<net::RecommendRequest> batch = {
      Probe(on0, 0, 10), Probe(on1, 0, 10), Probe(on0, 1, 10)};
  auto replies = client->RecommendBatchEx(batch);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  ASSERT_EQ(replies->size(), batch.size());
  EXPECT_EQ((*replies)[0].coord.partial, 1u);
  EXPECT_TRUE((*replies)[1].entries.empty());
  for (size_t i : {0u, 2u}) {
    auto expect = reference.Recommend(ToQuery(batch[i]));
    ASSERT_TRUE(expect.ok());
    ASSERT_EQ(CanonicalBytes((*replies)[i].entries),
              CanonicalBytes(expect->ranking.entries))
        << "batch slot " << i;
  }
}

TEST(CoordPartialPolicyTest, DegradeOffTurnsShardLossIntoError) {
  // `mbrec route --degrade off`: a lost home shard is an ERROR, not a
  // silent partial reply. Every shard answers its own users alone, so the
  // surviving shard's queries are untouched in both modes.
  for (bool landmark_mode : {false, true}) {
    const std::string context = landmark_mode ? "landmark" : "exact";
    const uint32_t halo = landmark_mode ? 1 : Params().max_depth - 1;
    auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                           landmark_mode, halo,
                           /*ladder_shard=*/UINT32_MAX,
                           /*degrade_partial=*/false);
    ASSERT_NE(stack, nullptr) << context;
    auto client = Dial(*stack);
    ASSERT_TRUE(client.ok()) << context;

    stack->shards[1]->server().RequestStop();
    stack->shards[1]->server().Wait();

    auto lost = client->RecommendEx(Probe(UserOn(*stack, 1), 0, 10));
    ASSERT_FALSE(lost.ok())
        << context << ": degrade off must fail, not partially merge";

    auto alive = client->RecommendEx(Probe(UserOn(*stack, 0), 0, 10));
    ASSERT_TRUE(alive.ok()) << context << ": " << alive.status().ToString();
    EXPECT_EQ(alive->coord.partial, 0u) << context;
  }
}

// ---- Protocol v5 tier merge through the router. ----

TEST(CoordTierMergeTest, RoutedTierIsMaxOverContributingShards) {
  // Exact-mode router over one healthy exact shard (0) and one shard
  // pinned at the approx rung (1): the routed reply's tier must be the
  // home shard's tier — 0 or 1 depending on where the user lives — and a
  // batch mixing both homes must carry per-list tiers.
  const uint32_t halo = Params().max_depth - 1;
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kCommunity,
                         /*landmark_mode=*/false, halo,
                         /*ladder_shard=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());

  uint32_t on_exact = 0;
  while (stack->plan.ShardOf(on_exact) != 0) ++on_exact;
  uint32_t on_ladder = 0;
  while (stack->plan.ShardOf(on_ladder) != 1) ++on_ladder;

  auto exact = client->RecommendEx({on_exact, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->served_tier, 0u);
  EXPECT_EQ(exact->coord.partial, 0u);

  auto degraded = client->RecommendEx({on_ladder, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->served_tier, 1u)
      << "the throttled shard's tier must survive the merge";
  EXPECT_EQ(degraded->coord.partial, 0u)
      << "tier degradation composes with, not through, the partial trailer";

  std::vector<net::RecommendRequest> batch = {
      {on_exact, 0, 5}, {on_ladder, 0, 5}, {on_exact, 1, 5}};
  auto replies = client->RecommendBatchEx(batch);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  ASSERT_EQ(replies->size(), 3u);
  EXPECT_EQ((*replies)[0].served_tier, 0u);
  EXPECT_EQ((*replies)[1].served_tier, 1u);
  EXPECT_EQ((*replies)[2].served_tier, 0u);

  // The rollup sums the shards' per-tier counters: both tiers appear.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->tier_exact, 3u);
  EXPECT_GE(stats->tier_approx, 2u);
  EXPECT_GE(stats->degraded, 2u);
}

TEST(CoordTierMergeTest, LandmarkRoutedTierIsAtLeastApprox) {
  auto stack = MakeStack(/*shards=*/2, PartitionStrategy::kHash,
                         /*landmark_mode=*/true, /*halo_depth=*/1);
  ASSERT_NE(stack, nullptr);
  auto client = Dial(*stack);
  ASSERT_TRUE(client.ok());
  auto r = client->RecommendEx({/*user=*/3, /*topic=*/0, /*top_n=*/5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The home shard's landmark engine serves the approx tier, relayed as is.
  EXPECT_EQ(r->served_tier, 1u);
}

}  // namespace
}  // namespace mbr::coord
