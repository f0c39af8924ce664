// Loopback integration tests for the epoll server + blocking client:
// remote answers must be byte-identical to direct engine calls, overload
// must shed with OVERLOADED (and show up in STATS), and shutdown must
// drain in-flight work while refusing new connections. The event loop
// answers fresh cache hits itself, and a publish never waits on a reader.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::net {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using topics::TopicSet;

// A small but non-trivial graph: a topic-0 chain with some fan-out so
// ranked lists have several entries.
LabeledGraph TestGraph() {
  GraphBuilder b(32, 4);
  for (uint32_t u = 0; u + 1 < 32; ++u) {
    b.AddEdge(u, u + 1, TopicSet::Single(0));
    if (u + 2 < 32) b.AddEdge(u, u + 2, TopicSet::Single(0));
    b.AddEdge(u + 1, u % 3, TopicSet::Single(1));
  }
  return std::move(b).Build();
}

// Parks every scored (cache-miss) query inside the engine while armed,
// which keeps its dispatcher busy: it is installed as the engine's stale
// probe, which the worker calls after it pinned its generation. The probe
// does not decide the tier, so no reply changes tier.
struct MissGate {
  std::atomic<bool> armed{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};

  std::function<void(bool)> Probe() {
    return [this](bool) {
      if (armed.load()) {
        entered.store(true);
        while (!released.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    };
  }
  void WaitEntered() const {
    while (!entered.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

class NetServerTest : public ::testing::Test {
 protected:
  // `gated` installs gate_ before the server starts.
  void StartServer(ServerConfig cfg, bool gated = false) {
    graph_ = std::make_unique<LabeledGraph>(TestGraph());
    auth_ = std::make_unique<core::AuthorityIndex>(*graph_);
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 256;
    ec.params.beta = 0.1;
    engine_ = std::make_unique<service::QueryEngine>(
        *graph_, *auth_, topics::TwitterSimilarity(), ec);
    if (gated) engine_->SetStaleProbe(gate_.Probe());
    server_ = std::make_unique<Server>(*engine_, cfg);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  // A parked query must not outlive the test, or the server's shutdown
  // would wait for it.
  void TearDown() override { gate_.released.store(true); }

  util::Result<Client> Dial() {
    ClientConfig cc;
    cc.port = server_->port();
    return Client::Connect(cc);
  }

  uint64_t RecommendLatencyCount() {
    return engine_->registry()
        .GetHistogram("mbr_net_request_latency_us", "",
                      {{"op", "recommend"}})
        ->TakeSnapshot()
        .count;
  }

  MissGate gate_;
  std::unique_ptr<LabeledGraph> graph_;
  std::unique_ptr<core::AuthorityIndex> auth_;
  std::unique_ptr<service::QueryEngine> engine_;
  std::unique_ptr<Server> server_;
};

// ---- Raw-socket helpers: whole frames, byte for byte. ----

int DialRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::vector<uint8_t> Frame(MessageKind kind, uint64_t request_id,
                           std::span<const uint8_t> payload) {
  std::vector<uint8_t> wire;
  AppendFrame(kind, request_id, payload, &wire);
  return wire;
}

std::vector<uint8_t> RecommendFrame(uint64_t request_id,
                                    const RecommendRequest& req) {
  return Frame(MessageKind::kRecommend, request_id, EncodeRecommend(req));
}

bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// The next whole frame (header and payload) read from `fd`, or an empty
// vector if none arrives within `timeout_ms`.
std::vector<uint8_t> ReadFrame(int fd, int timeout_ms) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  std::vector<uint8_t> got;
  size_t want = kFrameHeaderBytes;
  while (got.size() < want) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      return {};
    }
    uint8_t byte;  // one byte at a time: never read into the next frame
    if (::recv(fd, &byte, 1, 0) != 1) return {};
    got.push_back(byte);
    if (got.size() == kFrameHeaderBytes) {
      FrameHeader h;
      if (ParseFrameHeader(got, kWireLimits, &h) != HeaderParse::kOk) {
        return {};
      }
      want += h.payload_len;
    }
  }
  return got;
}

std::vector<uint8_t> RoundTrip(int fd, const std::vector<uint8_t>& request,
                               int timeout_ms = 5000) {
  if (!SendAll(fd, request)) return {};
  return ReadFrame(fd, timeout_ms);
}

// Top 5 on topic 0 for `user`.
RecommendRequest Key(uint32_t user) {
  RecommendRequest r;
  r.user = user;
  r.top_n = 5;
  return r;
}

MessageKind KindOf(const std::vector<uint8_t>& frame) {
  FrameHeader h;
  EXPECT_EQ(ParseFrameHeader(frame, kWireLimits, &h), HeaderParse::kOk);
  return h.kind;
}

TEST_F(NetServerTest, PingPong) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServerTest, RemoteMatchesDirectEngineExactly) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  for (uint32_t user : {0u, 3u, 17u}) {
    auto remote = client->Recommend(user, 0, 8);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    RankedList direct = engine_->TopN(user, 0, 8).value();
    ASSERT_EQ(remote->size(), direct.size()) << "user " << user;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ((*remote)[i].id, direct[i].id);
      // Scores travel as raw doubles: bit-identical, not just close.
      EXPECT_EQ((*remote)[i].score, direct[i].score);
    }
  }
}

TEST_F(NetServerTest, BatchMatchesDirectAndPreservesOrder) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  std::vector<RecommendRequest> reqs = {{5, 0, 4}, {0, 1, 6}, {5, 0, 4}};
  auto remote = client->RecommendBatch(reqs);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->size(), 3u);
  for (size_t q = 0; q < reqs.size(); ++q) {
    RankedList direct =
        engine_->TopN(reqs[q].user, reqs[q].topic, reqs[q].top_n).value();
    ASSERT_EQ((*remote)[q].size(), direct.size()) << "query " << q;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ((*remote)[q][i].id, direct[i].id);
      EXPECT_EQ((*remote)[q][i].score, direct[i].score);
    }
  }
}

TEST_F(NetServerTest, OutOfRangeQueryGetsInvalidArgumentNotCrash) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  auto bad_user = client->Recommend(1u << 30, 0, 5);
  ASSERT_FALSE(bad_user.ok());
  EXPECT_EQ(bad_user.status().code(), util::StatusCode::kInvalidArgument);
  auto bad_topic = client->Recommend(0, 200, 5);
  ASSERT_FALSE(bad_topic.ok());
  EXPECT_EQ(bad_topic.status().code(), util::StatusCode::kInvalidArgument);
  // The connection survives a rejected request.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServerTest, OversizedReplyIsRefusedAtAdmission) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  // max_batch queries at max_list entries each would be a ~200 MiB reply;
  // the server must refuse rather than emit a frame nobody can parse.
  WireLimits limits;
  std::vector<RecommendRequest> reqs(limits.max_batch,
                                     {0, 0, limits.max_list});
  auto r = client->RecommendBatch(reqs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(NetServerTest, StatsReflectServedQueries) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Recommend(1, 0, 5).ok());
  ASSERT_TRUE(client->Recommend(1, 0, 5).ok());  // cache hit
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->queries, 2u);
  EXPECT_EQ(stats->cache_hits, 1u);
  EXPECT_EQ(stats->cache_misses, 1u);
  EXPECT_EQ(stats->connections_accepted, 1u);
  EXPECT_EQ(stats->connections_open, 1u);
  EXPECT_EQ(stats->shed_overload, 0u);
}

TEST_F(NetServerTest, OverloadBurstShedsWithOverloadedReplies) {
  ServerConfig cfg;
  cfg.max_inflight = 1;
  cfg.dispatch_threads = 1;
  cfg.request_deadline_ms = 0;  // no deadline: isolate the overload path
  StartServer(cfg, /*gated=*/true);

  // Occupy the only dispatcher (and the single in-flight slot) with a
  // large batch of distinct queries (distinct so the cache can't serve
  // them instantly), parked at its first miss until the probing is done:
  // on a loaded host the batch could otherwise finish before the first
  // probe is sent.
  gate_.armed.store(true);
  auto busy = Dial();
  ASSERT_TRUE(busy.ok());
  std::vector<RecommendRequest> big;
  for (uint32_t i = 0; i < 512; ++i) {
    big.push_back({i % 32, 0, 1 + i / 32});
  }

  auto prober = Dial();
  ASSERT_TRUE(prober.ok());

  // Fire the batch from a thread (the blocking client waits for its
  // reply). Probing only starts after the batch is admitted — otherwise a
  // probe could grab the in-flight slot first and shed the batch instead.
  std::thread batch_thread([&busy, &big] {
    auto r = busy->RecommendBatch(big);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  gate_.WaitEntered();

  bool shed_seen = false;
  for (int attempt = 0; attempt < 2000 && !shed_seen; ++attempt) {
    auto r = prober->Recommend(1, 0, 5);
    if (!r.ok()) {
      ASSERT_EQ(r.status().code(), util::StatusCode::kUnavailable)
          << r.status().ToString();
      shed_seen = true;
    }
  }
  gate_.released.store(true);
  batch_thread.join();
  EXPECT_TRUE(shed_seen) << "no OVERLOADED reply observed during the burst";

  auto stats = prober->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->shed_overload, 1u);
}

TEST_F(NetServerTest, ExcludeListTravelsTheWire) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  RankedList base = engine_->TopN(3, 0, 8).value();
  ASSERT_GE(base.size(), 2u);

  RecommendRequest req{3, 0, 8};
  req.exclude = {base[0].id};
  auto remote = client->Recommend(req);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto direct = engine_->Recommend(
      core::Query::TopN(3, 0, 8).WithExclude({base[0].id}));
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(remote->size(), direct.value().ranking.entries.size());
  for (size_t i = 0; i < remote->size(); ++i) {
    EXPECT_NE((*remote)[i].id, base[0].id);
    EXPECT_EQ((*remote)[i].id, direct.value().ranking.entries[i].id);
    EXPECT_EQ((*remote)[i].score, direct.value().ranking.entries[i].score);
  }
}

TEST_F(NetServerTest, ClientDeadlineShedsQueuedRequests) {
  ServerConfig cfg;
  cfg.dispatch_threads = 1;
  cfg.max_inflight = 64;           // roomy: isolate the deadline path
  cfg.request_deadline_ms = 0;     // only the client-supplied deadline
  StartServer(cfg);

  auto busy = Dial();
  ASSERT_TRUE(busy.ok());
  auto prober = Dial();
  ASSERT_TRUE(prober.ok());

  // Distinct queries so the cache can't absorb the batch instantly.
  std::vector<RecommendRequest> big;
  for (uint32_t i = 0; i < 512; ++i) {
    big.push_back({i % 32, 0, 1 + i / 32});
  }

  bool deadline_seen = false;
  for (int round = 0; round < 50 && !deadline_seen; ++round) {
    // Snapshot before spawning: if the batch lands (and is counted) before
    // the snapshot, `requests <= admitted` holds forever and the wait below
    // never exits — an easy reordering on a single hardware thread.
    const uint64_t admitted = server_->counters().requests;
    std::thread batch_thread([&busy, &big] {
      auto r = busy->RecommendBatch(big);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
    while (server_->counters().requests <= admitted) {
      std::this_thread::yield();
    }
    // The single dispatcher is busy with the batch; a 1 ms deadline expires
    // while this probe waits in the dispatch queue. The batch caches
    // {1, 0, 5}; the exclusion list keeps the probe off the cache, so the
    // event loop cannot answer it and it always queues.
    RecommendRequest probe{1, 0, 5};
    probe.exclude = {31};
    probe.deadline_ms = 1;
    auto r = prober->Recommend(probe);
    if (!r.ok()) {
      ASSERT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded)
          << r.status().ToString();
      // When the batch drains within the probe's 1 ms, the probe is
      // dispatched in time and its deadline expires inside the engine
      // instead: the same error, but no shed. Only a shed ends the loop.
      deadline_seen = server_->counters().shed_deadline > 0;
    }
    batch_thread.join();
  }
  EXPECT_TRUE(deadline_seen) << "no deadline shed observed";

  auto stats = prober->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->shed_deadline, 1u);
}

TEST_F(NetServerTest, MetricsOpReturnsPrometheusText) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Recommend(1, 0, 5).ok());

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Engine and net families from the shared registry, with live values.
  EXPECT_NE(text->find("# TYPE mbr_engine_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("mbr_engine_queries_total 1\n"), std::string::npos);
  EXPECT_NE(text->find("# TYPE mbr_net_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE mbr_net_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text->find("mbr_net_request_latency_us_count{op=\"recommend\"} 1"),
            std::string::npos);
}

TEST_F(NetServerTest, ShutdownDrainsInFlightAndRefusesNewConnections) {
  StartServer({});

  // Pipeline RECOMMEND + SHUTDOWN in one write: the server must answer the
  // in-flight query, then ack the shutdown, then close.
  const int fd = DialRaw(server_->port());
  ASSERT_GE(fd, 0);

  std::vector<uint8_t> wire;
  AppendFrame(MessageKind::kRecommend, 1, EncodeRecommend({3, 0, 5}), &wire);
  AppendFrame(MessageKind::kShutdown, 2, {}, &wire);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  // Read everything until the server closes the connection.
  std::vector<uint8_t> got;
  uint8_t buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 5000), 0) << "server stalled during drain";
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  ::close(fd);

  // Exactly two frames, matched by request id (the ack is written by the
  // event loop while the query is still in the dispatcher, so it may —
  // legitimately — arrive first).
  WireLimits limits;
  bool saw_result = false;
  bool saw_ack = false;
  size_t off = 0;
  while (off < got.size()) {
    FrameHeader h;
    ASSERT_EQ(
        ParseFrameHeader({got.data() + off, got.size() - off}, limits, &h),
        HeaderParse::kOk);
    ASSERT_LE(off + kFrameHeaderBytes + h.payload_len, got.size());
    std::span<const uint8_t> body(got.data() + off + kFrameHeaderBytes,
                                  h.payload_len);
    if (h.request_id == 1) {
      EXPECT_EQ(h.kind, MessageKind::kResult);
      RankedList list;
      ASSERT_TRUE(DecodeResult(body, limits, kProtocolVersion, &list).ok());
      RankedList direct = engine_->TopN(3, 0, 5).value();
      ASSERT_EQ(list.size(), direct.size());
      for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(list[i].id, direct[i].id);
      }
      saw_result = true;
    } else {
      EXPECT_EQ(h.request_id, 2u);
      EXPECT_EQ(h.kind, MessageKind::kShutdownAck);
      saw_ack = true;
    }
    off += kFrameHeaderBytes + h.payload_len;
  }
  EXPECT_TRUE(saw_result) << "in-flight query was dropped during drain";
  EXPECT_TRUE(saw_ack);

  server_->Wait();
  EXPECT_FALSE(server_->running());

  // The listen socket is gone: new connections are refused.
  ClientConfig cc;
  cc.port = server_->port();
  cc.connect_timeout_ms = 500;
  EXPECT_FALSE(Client::Connect(cc).ok());
}

TEST_F(NetServerTest, RequestStopIsIdempotentAndDrains) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Recommend(2, 0, 5).ok());
  server_->RequestStop();
  server_->RequestStop();
  server_->Wait();
  EXPECT_FALSE(server_->running());
  const ServerCounters counters = server_->counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.closed, 1u);
  EXPECT_EQ(counters.requests, 1u);
}

TEST_F(NetServerTest, ConnectionCapRefusesExtraClients) {
  ServerConfig cfg;
  cfg.max_connections = 2;
  StartServer(cfg);
  auto a = Dial();
  auto b = Dial();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->Ping().ok());
  ASSERT_TRUE(b->Ping().ok());
  // The third connection is accepted by the kernel but closed by the
  // server before any reply; a request on it must fail cleanly.
  auto c = Dial();
  if (c.ok()) {
    EXPECT_FALSE(c->Ping().ok());
  }
  EXPECT_GE(server_->counters().refused, 1u);
}

// ---- Cache hits on the event loop. ----

TEST_F(NetServerTest, CachedRecommendIsAnsweredWhileTheDispatcherIsBusy) {
  ServerConfig cfg;
  cfg.dispatch_threads = 1;
  cfg.request_deadline_ms = 0;
  StartServer(cfg, /*gated=*/true);
  const int fd = DialRaw(server_->port());
  const int busy = DialRaw(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_GE(busy, 0);

  // The first ask misses and is scored on the dispatcher, which caches it.
  const std::vector<uint8_t> request = RecommendFrame(7, Key(1));
  const std::vector<uint8_t> scored = RoundTrip(fd, request);
  ASSERT_FALSE(scored.empty());
  ASSERT_EQ(KindOf(scored), MessageKind::kResult);

  // Park the only dispatcher on a cold key.
  gate_.armed.store(true);
  ASSERT_TRUE(SendAll(busy, RecommendFrame(8, Key(2))));
  gate_.WaitEntered();

  const service::EngineStats engine_before = engine_->Stats();
  const uint64_t requests_before = server_->counters().requests;
  const uint64_t latency_before = RecommendLatencyCount();
  const std::vector<uint8_t> hit = RoundTrip(fd, request, 2000);
  EXPECT_EQ(hit, scored) << "a cached RECOMMEND waited for the busy "
                            "dispatcher or came back different";
  const service::EngineStats engine_after = engine_->Stats();
  // Counted exactly as a hit on the dispatcher path would be.
  EXPECT_EQ(engine_after.cache_hits, engine_before.cache_hits + 1);
  EXPECT_EQ(engine_after.queries, engine_before.queries + 1);
  EXPECT_EQ(engine_after.batches, engine_before.batches + 1);
  EXPECT_EQ(engine_after.cache_misses, engine_before.cache_misses);
  EXPECT_EQ(server_->counters().requests, requests_before + 1);
  EXPECT_EQ(RecommendLatencyCount(), latency_before + 1);

  gate_.released.store(true);
  const std::vector<uint8_t> parked = ReadFrame(busy, 5000);
  ASSERT_FALSE(parked.empty());
  EXPECT_EQ(KindOf(parked), MessageKind::kResult);
  ::close(fd);
  ::close(busy);
}

TEST_F(NetServerTest, SaturatedServerShedsACachedKey) {
  ServerConfig cfg;
  cfg.max_inflight = 1;
  cfg.dispatch_threads = 1;
  cfg.request_deadline_ms = 0;
  StartServer(cfg, /*gated=*/true);
  const int fd = DialRaw(server_->port());
  const int busy = DialRaw(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_GE(busy, 0);
  const std::vector<uint8_t> request = RecommendFrame(7, Key(1));
  ASSERT_EQ(KindOf(RoundTrip(fd, request)), MessageKind::kResult);

  // The parked query holds the only in-flight slot.
  gate_.armed.store(true);
  ASSERT_TRUE(SendAll(busy, RecommendFrame(8, Key(2))));
  gate_.WaitEntered();

  const uint64_t hits_before = engine_->Stats().cache_hits;
  const uint64_t shed_before = server_->counters().shed_overload;
  const std::vector<uint8_t> reply = RoundTrip(fd, request);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(KindOf(reply), MessageKind::kOverloaded);
  EXPECT_EQ(server_->counters().shed_overload, shed_before + 1);
  EXPECT_EQ(engine_->Stats().cache_hits, hits_before);

  gate_.released.store(true);
  EXPECT_EQ(KindOf(ReadFrame(busy, 5000)), MessageKind::kResult);
  ::close(fd);
  ::close(busy);
}

TEST_F(NetServerTest, DrainingServerRefusesACachedKey) {
  ServerConfig cfg;
  cfg.dispatch_threads = 1;
  cfg.request_deadline_ms = 0;
  StartServer(cfg, /*gated=*/true);
  const int fd = DialRaw(server_->port());
  const int busy = DialRaw(server_->port());
  const int ctl = DialRaw(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_GE(busy, 0);
  ASSERT_GE(ctl, 0);
  const std::vector<uint8_t> request = RecommendFrame(7, Key(1));
  ASSERT_EQ(KindOf(RoundTrip(fd, request)), MessageKind::kResult);

  // A parked query keeps the drain from completing, so `fd` stays open.
  gate_.armed.store(true);
  ASSERT_TRUE(SendAll(busy, RecommendFrame(8, Key(2))));
  gate_.WaitEntered();
  // The loop starts the drain before it reads anything after the ack.
  ASSERT_EQ(KindOf(RoundTrip(ctl, Frame(MessageKind::kShutdown, 9, {}))),
            MessageKind::kShutdownAck);

  const uint64_t hits_before = engine_->Stats().cache_hits;
  const std::vector<uint8_t> reply = RoundTrip(fd, request);
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(KindOf(reply), MessageKind::kError);
  ErrorReply err;
  ASSERT_TRUE(DecodeError(std::span<const uint8_t>(reply).subspan(
                              kFrameHeaderBytes),
                          kWireLimits, &err)
                  .ok());
  EXPECT_EQ(err.code, WireError::kShuttingDown);
  EXPECT_EQ(engine_->Stats().cache_hits, hits_before);

  // The parked query is still answered, and then the drain completes.
  gate_.released.store(true);
  EXPECT_EQ(KindOf(ReadFrame(busy, 5000)), MessageKind::kResult);
  server_->Wait();
  EXPECT_FALSE(server_->running());
  for (int f : {fd, busy, ctl}) ::close(f);
}

// A publish retires every cached key's epoch at once: after Publish()
// returns, the event loop's cache probe never answers a warm key from an
// older epoch. The key is scored again and stamped with the new epoch, and
// keeps doing so while publishes land between requests.
TEST_F(NetServerTest, CachedKeyIsNeverServedFromAnEpochAPublishRetired) {
  StartServer({});
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  auto warm = client->RecommendEx(Key(1));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto hit = client->RecommendEx(Key(1));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  const uint64_t hits_before = engine_->Stats().cache_hits;
  ASSERT_GT(hits_before, 0u);

  EXPECT_EQ(engine_->Publish({}), warm->graph_epoch + 1);
  auto reply = client->RecommendEx(Key(1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->graph_epoch, warm->graph_epoch + 1);
  EXPECT_EQ(engine_->Stats().cache_hits, hits_before);

  // The same, racing: every epoch below `published` was retired before a
  // request was sent, so no reply may carry one.
  std::atomic<uint64_t> published{engine_->params_epoch()};
  std::atomic<bool> stop{false};
  std::thread publisher([this, &published, &stop] {
    while (!stop.load()) {
      published.store(engine_->Publish({}));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  int retired = 0;
  for (int i = 0; i < 200; ++i) {
    const uint64_t floor = published.load();
    auto r = client->RecommendEx(Key(1));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->graph_epoch < floor) ++retired;
    ASSERT_EQ(r->entries.size(), warm->entries.size());
    for (size_t k = 0; k < warm->entries.size(); ++k) {
      EXPECT_EQ(r->entries[k].id, warm->entries[k].id);
      EXPECT_EQ(r->entries[k].score, warm->entries[k].score);
    }
  }
  stop.store(true);
  publisher.join();
  EXPECT_EQ(retired, 0)
      << "a cached key was answered from an epoch a publish had retired";
}

// A publish never waits on a reader. With a miss parked inside the engine
// after it pinned its generation, Publish() returns and the event loop
// keeps answering; the parked reply then carries the epoch it pinned.
TEST_F(NetServerTest, EventLoopAndPublishNeverWaitOnAParkedReader) {
  ServerConfig cfg;
  cfg.request_deadline_ms = 0;  // the RECOMMEND waits out the gate
  StartServer(cfg, /*gated=*/true);
  auto reader = Dial();
  auto operator_client = Dial();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(operator_client.ok());

  const uint64_t pinned = engine_->params_epoch();
  gate_.armed.store(true);
  util::Result<ResultReply> parked(util::Status::Internal("unanswered"));
  std::thread read([&reader, &parked] { parked = reader->RecommendEx(Key(2)); });
  gate_.WaitEntered();

  std::atomic<bool> published{false};
  std::thread publisher([this, &published] {
    engine_->Publish({});
    published.store(true);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!published.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool published_while_parked = published.load();
  // Answered before the gate opens, or never.
  auto text = operator_client->Metrics();
  gate_.released.store(true);
  read.join();
  publisher.join();

  EXPECT_TRUE(published_while_parked) << "Publish() waited on a reader";
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_EQ(parked->graph_epoch, pinned);
  EXPECT_EQ(engine_->params_epoch(), pinned + 1);
}

// ---- The served_tier byte over a live server. ----

TEST_F(NetServerTest, ServedTierTravelsTheWireAndV4PeersStillDecode) {
  StartServer({});  // exact engine: every reply is tier 0
  auto client = Dial();
  ASSERT_TRUE(client.ok());
  auto one = client->RecommendEx({3, 0, 8});
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->served_tier, 0u);

  std::vector<RecommendRequest> reqs = {{5, 0, 4}, {0, 1, 6}};
  auto batch = client->RecommendBatchEx(reqs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const ResultReply& r : *batch) EXPECT_EQ(r.served_tier, 0u);
}

TEST_F(NetServerTest, LadderEngineStampsItsTierOnWireReplies) {
  // A ladder engine pinned at the approx rung (approx_at = 0): every wire
  // reply must say kApprox, and the STATS projection must count it.
  graph_ = std::make_unique<LabeledGraph>(TestGraph());
  auth_ = std::make_unique<core::AuthorityIndex>(*graph_);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = 6;
  auto sel = SelectLandmarks(*graph_, landmark::SelectionStrategy::kFollow,
                             scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 16;
  landmark::LandmarkIndex index(*graph_, *auth_, topics::TwitterSimilarity(),
                                sel.landmarks, icfg);
  service::EngineConfig ec;
  ec.num_threads = 1;
  ec.landmarks = &index;
  ec.degrade.enabled = true;
  ec.degrade.pressure.approx_at = 0;
  engine_ = std::make_unique<service::QueryEngine>(
      *graph_, *auth_, topics::TwitterSimilarity(), ec);
  server_ = std::make_unique<Server>(*engine_, ServerConfig{});
  ASSERT_TRUE(server_->Start().ok());

  auto client = Dial();
  ASSERT_TRUE(client.ok());
  auto reply = client->RecommendEx({3, 0, 8});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->served_tier, 1u);  // kApprox

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->tier_approx, 1u);
  EXPECT_EQ(stats->tier_exact, 0u);
  EXPECT_EQ(stats->degraded, 1u);
}

// Connect makes one attempt. A refused connect is kUnavailable, which the
// router counts as shard loss (the home shard's queries get partial
// replies); an unparsable host is kInvalidArgument, which it relays as an
// error. The suite keeps its name from when Connect retried: the client now
// gives up on the first failure of either kind.
TEST(ClientRetryTest, RetriesRefusedConnectionThenGivesUp) {
  // A loopback port bound without listen() refuses every connect.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  ClientConfig refused;
  refused.port = ntohs(addr.sin_port);
  refused.connect_timeout_ms = 5000;
  const auto start = std::chrono::steady_clock::now();
  auto client = Client::Connect(refused);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(holder);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), util::StatusCode::kUnavailable);
  // The refusal comes straight back: no second attempt, no wait for the
  // connect timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(ClientRetryTest, NonRetryableErrorFailsFast) {
  ClientConfig bad_host;
  bad_host.host = "not an address";
  bad_host.port = 1;
  const auto start = std::chrono::steady_clock::now();
  auto bad = Client::Connect(bad_host);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  // Nothing is dialled, so nothing waits.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(900));
}

}  // namespace
}  // namespace mbr::net
