// The serving front end's transport guards, held for both of its
// handlers: a single-node QueryEngine server and a coord::Router over two
// shards. A peer that pipelines work and never reads must not wedge
// shutdown past drain_grace_ms; the router must shed past its admission
// bound and count the connections it refuses, like any net::Server.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "net/client.h"
#include "net/server.h"
#include "routed_stack.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::net {
namespace {

using Clock = std::chrono::steady_clock;
using graph::GraphBuilder;
using graph::LabeledGraph;
using topics::TopicSet;

constexpr uint32_t kNodes = 200;
constexpr int kStalledFrames = 40;
constexpr uint32_t kQueriesPerFrame = 64;

// Every user follows the next 32 on topic 0, so each of the 64 lists in a
// batch reply ranks all kNodes - 1 other users: 40 replies of ~150 KB
// overflow what the kernel buffers for a peer that never reads (about
// 3 MB under Linux's default 4 MB tcp_wmem), and the rest stays queued
// under the server's 4 MB write cap until the drain grace closes it.
LabeledGraph TestGraph() {
  GraphBuilder b(kNodes, 4);
  for (uint32_t u = 0; u < kNodes; ++u) {
    for (uint32_t d = 1; d <= 32; ++d) {
      b.AddEdge(u, (u + d) % kNodes, TopicSet::Single(0));
    }
  }
  return std::move(b).Build();
}

int DialRaw(uint16_t port, int rcvbuf_bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// `frames` RECOMMEND_BATCH frames of 64 queries at top_n 1000, one buffer.
std::vector<uint8_t> PipelinedBatches(int frames) {
  std::vector<RecommendRequest> batch;
  for (uint32_t i = 0; i < kQueriesPerFrame; ++i) {
    RecommendRequest r;
    r.user = i % kNodes;
    r.top_n = 1000;
    batch.push_back(r);
  }
  const std::vector<uint8_t> payload = EncodeRecommendBatch(batch);
  std::vector<uint8_t> wire;
  for (int f = 0; f < frames; ++f) {
    AppendFrame(MessageKind::kRecommendBatch, static_cast<uint64_t>(f + 1),
                payload, &wire);
  }
  return wire;
}

bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool WaitFor(const std::function<bool()>& done, std::chrono::seconds limit) {
  const Clock::time_point give_up = Clock::now() + limit;
  while (!done()) {
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

uint64_t BatchesAnswered(obs::Registry& registry) {
  return registry
      .GetHistogram("mbr_net_request_latency_us",
                    "Dispatcher latency per request in microseconds, by op.",
                    {{"op", "recommend_batch"}})
      ->TakeSnapshot()
      .count;
}

// A peer with a 4 KB receive buffer pipelines kStalledFrames batches and
// never reads. Once the front end has answered them all (the replies back
// up in its write buffer), RequestStop() + Wait() must finish within
// `grace_ms` plus a margin. A watchdog closes the peer's socket at that
// deadline, so a front end that waits on the peer forever fails this check
// instead of hanging the suite.
void ExpectStalledReaderCannotWedgeShutdown(uint16_t port,
                                            obs::Registry& registry,
                                            std::function<void()> stop,
                                            uint32_t grace_ms) {
  const int fd = DialRaw(port, 4096);
  ASSERT_TRUE(SendAll(fd, PipelinedBatches(kStalledFrames)));
  EXPECT_TRUE(WaitFor(
      [&] { return BatchesAnswered(registry) >= kStalledFrames; },
      std::chrono::seconds(20)))
      << "the front end never answered the pipelined batches";

  const std::chrono::milliseconds deadline(grace_ms + 3000);
  std::mutex mu;
  std::condition_variable cv;
  bool stopped = false;
  bool closed = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, deadline, [&] { return stopped; })) {
      // Closing with unread bytes resets the connection, which fails any
      // send still blocked on this peer.
      ::close(fd);
      closed = true;
    }
  });
  const Clock::time_point begin = Clock::now();
  stop();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - begin);
  {
    std::lock_guard<std::mutex> lock(mu);
    stopped = true;
  }
  cv.notify_one();
  watchdog.join();
  if (!closed) ::close(fd);
  EXPECT_LT(took, deadline) << "shutdown waited on a peer that never reads";
}

class FrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<LabeledGraph>(TestGraph());
    auth_ = std::make_unique<core::AuthorityIndex>(*graph_);
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 1024;  // every frame repeats the same 64 queries
    engine_ = std::make_unique<service::QueryEngine>(
        *graph_, *auth_, topics::TwitterSimilarity(), ec);
  }

  std::unique_ptr<LabeledGraph> graph_;
  std::unique_ptr<core::AuthorityIndex> auth_;
  std::unique_ptr<service::QueryEngine> engine_;
};

TEST_F(FrontEndTest, StalledReaderCannotWedgeServerShutdown) {
  ServerConfig cfg;
  cfg.drain_grace_ms = 500;
  cfg.request_deadline_ms = 0;  // every batch is answered, none shed late
  Server server(*engine_, cfg);
  ASSERT_TRUE(server.Start().ok());
  ExpectStalledReaderCannotWedgeShutdown(
      server.port(), engine_->registry(),
      [&] {
        server.RequestStop();
        server.Wait();
      },
      cfg.drain_grace_ms);
  EXPECT_FALSE(server.running());
}

TEST_F(FrontEndTest, StalledReaderCannotWedgeRouterShutdown) {
  coord::RoutedStack stack(*graph_, coord::RouterConfig{});
  ASSERT_NE(stack.router, nullptr);
  // The router's front end keeps ServerConfig's default drain grace.
  ExpectStalledReaderCannotWedgeShutdown(
      stack.router->port(), stack.router->registry(),
      [&] {
        stack.router->RequestStop();
        stack.router->Wait();
      },
      ServerConfig{}.drain_grace_ms);
  EXPECT_FALSE(stack.router->running());
}

TEST_F(FrontEndTest, RouterShedsPastItsAdmissionBound) {
  // max_connections is also the router's admission bound: two routed
  // batches in flight, the rest of a pipelined burst answered OVERLOADED.
  coord::RouterConfig rcfg;
  rcfg.max_connections = 2;
  coord::RoutedStack stack(*graph_, rcfg);
  ASSERT_NE(stack.router, nullptr);

  constexpr int kFrames = 32;
  const int fd = DialRaw(stack.router->port(), 0);
  ASSERT_TRUE(SendAll(fd, PipelinedBatches(kFrames)));
  std::vector<uint8_t> got;
  uint8_t buf[65536];
  int frames = 0;
  int overloaded = 0;
  WireLimits limits;
  size_t off = 0;
  while (frames < kFrames) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 10000), 0) << "router stalled mid-burst";
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
    FrameHeader h;
    while (ParseFrameHeader({got.data() + off, got.size() - off}, limits,
                            &h) == HeaderParse::kOk &&
           got.size() - off >= kFrameHeaderBytes + h.payload_len) {
      EXPECT_TRUE(h.kind == MessageKind::kResultBatch ||
                  h.kind == MessageKind::kOverloaded)
          << MessageKindName(h.kind);
      if (h.kind == MessageKind::kOverloaded) ++overloaded;
      ++frames;
      off += kFrameHeaderBytes + h.payload_len;
    }
  }
  ::close(fd);
  EXPECT_GE(overloaded, 1) << "no OVERLOADED reply past the admission bound";
  EXPECT_EQ(stack.router->registry()
                .GetCounter("mbr_net_shed_overload_total", "")
                ->Value(),
            static_cast<uint64_t>(overloaded));
}

TEST_F(FrontEndTest, RouterRefusesAndCountsConnectionsOverItsCap) {
  coord::RouterConfig rcfg;
  rcfg.max_connections = 1;
  coord::RoutedStack stack(*graph_, rcfg);
  ASSERT_NE(stack.router, nullptr);
  ClientConfig cc;
  cc.port = stack.router->port();
  auto first = Client::Connect(cc);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->Ping().ok());
  // Accepted by the kernel, closed by the router before any reply.
  auto second = Client::Connect(cc);
  if (second.ok()) {
    EXPECT_FALSE(second->Ping().ok());
  }
  EXPECT_GE(stack.router->registry()
                .GetCounter("mbr_net_connections_refused_total", "")
                ->Value(),
            1u);
  // The admitted client is unaffected.
  EXPECT_TRUE(first->Recommend(3, 0, 5).ok());
}

}  // namespace
}  // namespace mbr::net
