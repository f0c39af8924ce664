// The serving front end's transport guards, held for both of its
// handlers: a single-node QueryEngine server and a coord::Router over two
// shards. A frame stamped with any protocol version but kProtocolVersion is
// refused and its connection closed. A peer that pipelines work and never
// reads overflows the write cap and is closed, and must not wedge shutdown
// past drain_grace_ms; the router must shed past its admission bound and
// count the connections it refuses, like any net::Server.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
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

// The 64 queries of one pipelined frame, each at top_n 1000.
std::vector<RecommendRequest> HeavyBatch() {
  std::vector<RecommendRequest> batch;
  for (uint32_t i = 0; i < kQueriesPerFrame; ++i) {
    RecommendRequest r;
    r.user = i % kNodes;
    r.top_n = 1000;
    batch.push_back(r);
  }
  return batch;
}

// `frames` RECOMMEND_BATCH frames of HeavyBatch(), one buffer.
std::vector<uint8_t> PipelinedBatches(int frames) {
  const std::vector<uint8_t> payload = EncodeRecommendBatch(HeavyBatch());
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

uint64_t ClosedConnections(obs::Registry& registry) {
  return registry.GetCounter("mbr_net_connections_closed_total", "")->Value();
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

// Reads from `fd` until the peer closes it (EOF or ECONNRESET), appending
// to `got`. False when the peer neither closes nor sends for 5 s.
bool ReadUntilClosed(int fd, std::vector<uint8_t>* got) {
  uint8_t buf[65536];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      got->insert(got->end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n == 0 || errno == ECONNRESET;
  }
}

// Sends one RECOMMEND frame stamped with each version but kProtocolVersion,
// each on its own connection that the test never half-closes: the front end
// must answer ERROR(UNSUPPORTED_VERSION) with the frame's request id, stamped
// kProtocolVersion, and then close the connection itself. A client speaking
// kProtocolVersion is still served afterwards.
void ExpectOtherVersionsRefused(uint16_t port) {
  std::vector<uint16_t> versions = {0, 1, 2, 3, 4, 6, 0xFFFF};
  for (int bit = 0; bit < 16; ++bit) {
    versions.push_back(static_cast<uint16_t>(kProtocolVersion ^ (1u << bit)));
  }
  RecommendRequest req;
  req.user = 3;
  req.top_n = 5;
  const std::vector<uint8_t> payload = EncodeRecommend(req);
  const WireLimits limits;
  uint64_t request_id = 500;
  for (uint16_t version : versions) {
    SCOPED_TRACE("version " + std::to_string(version));
    ++request_id;
    std::vector<uint8_t> frame;
    AppendFrame(MessageKind::kRecommend, request_id, payload, &frame);
    std::memcpy(frame.data() + 4, &version, sizeof(version));  // header field
    const int fd = DialRaw(port, 0);
    ASSERT_TRUE(SendAll(fd, frame));
    std::vector<uint8_t> got;
    const bool closed = ReadUntilClosed(fd, &got);
    ::close(fd);
    EXPECT_TRUE(closed) << "connection left open after the refusal";

    FrameHeader h;
    ASSERT_EQ(ParseFrameHeader(got, limits, &h), HeaderParse::kOk);
    ASSERT_EQ(got.size(), kFrameHeaderBytes + h.payload_len)
        << "anything but exactly one reply frame";
    const std::span<const uint8_t> body(got.data() + kFrameHeaderBytes,
                                        h.payload_len);
    ASSERT_TRUE(VerifyPayloadCrc(h, body).ok());
    EXPECT_EQ(h.version, kProtocolVersion);
    EXPECT_EQ(h.request_id, request_id);
    ASSERT_EQ(h.kind, MessageKind::kError) << MessageKindName(h.kind);
    ErrorReply err;
    ASSERT_TRUE(DecodeError(body, limits, &err).ok());
    EXPECT_EQ(err.code, WireError::kUnsupportedVersion) << err.message;
  }
  ClientConfig cc;
  cc.port = port;
  auto client = Client::Connect(cc);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Recommend(req).ok());
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

TEST_F(FrontEndTest, ServerRefusesEveryOtherProtocolVersion) {
  Server server(*engine_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  ExpectOtherVersionsRefused(server.port());
}

TEST_F(FrontEndTest, RouterRefusesEveryOtherProtocolVersion) {
  coord::RoutedStack stack(*graph_, coord::RouterConfig{});
  ASSERT_NE(stack.router, nullptr);
  ExpectOtherVersionsRefused(stack.router->port());
}

TEST_F(FrontEndTest, ReaderThatNeverReadsOverflowsTheWriteCapAndIsClosed) {
  // The write cap is 4 x (header + max_payload_bytes), about 4 MB here.
  // kOverflowFrames replies of ~150 KB total about 18 MB: more than the cap
  // plus what the kernel buffers for a peer that never reads (at most
  // Linux's default 4 MB tcp_wmem maximum, about 3 MB in practice).
  constexpr int kOverflowFrames = 120;
  ServerConfig cfg;
  cfg.request_deadline_ms = 0;          // every batch is answered
  cfg.max_inflight = kOverflowFrames;  // and none is shed OVERLOADED
  Server server(*engine_, cfg);
  ASSERT_TRUE(server.Start().ok());
  obs::Registry& registry = engine_->registry();

  // One reply's size on the wire, from a client that reads (the layout's
  // size does not depend on the epoch, tier or trailer values).
  ClientConfig cc;
  cc.port = server.port();
  auto reader = Client::Connect(cc);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto lists = reader->RecommendBatch(HeavyBatch());
  ASSERT_TRUE(lists.ok()) << lists.status().ToString();
  const uint64_t replies_total =
      (kFrameHeaderBytes + EncodeResultBatch(*lists).size()) * kOverflowFrames;
  const uint64_t write_cap =
      4 * (kFrameHeaderBytes + uint64_t{cfg.limits.max_payload_bytes});
  ASSERT_GT(replies_total, 2 * write_cap);  // the cap, and as much again

  const uint64_t closed_before = ClosedConnections(registry);
  const int fd = DialRaw(server.port(), 4096);
  ASSERT_TRUE(SendAll(fd, PipelinedBatches(kOverflowFrames)));
  // No RequestStop: the front end closes the peer on its own.
  EXPECT_TRUE(WaitFor(
      [&] { return ClosedConnections(registry) >= closed_before + 1; },
      std::chrono::seconds(30)))
      << "a peer that never reads was not closed";
  std::vector<uint8_t> got;
  EXPECT_TRUE(ReadUntilClosed(fd, &got)) << "no EOF or reset after the close";
  ::close(fd);
  EXPECT_LT(got.size(), replies_total);
  EXPECT_EQ(ClosedConnections(registry), closed_before + 1);
  EXPECT_TRUE(reader->Ping().ok());
}

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
