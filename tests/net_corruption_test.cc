// Hostile-bytes sweep against a LIVE loopback server, porting the
// serde_corruption_test pattern to the wire: every single-byte truncation
// and every single-bit flip of a valid RECOMMEND frame must produce either
// a well-formed error/reply frame or a clean connection close — never a
// crash, a hang, or (under ASan) an out-of-bounds read. After the sweep
// the server must still answer a PING. The router, a net::Server handler,
// gets the truncation, bit-flip and garbage sweeps too (RouterCorruption).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "net/client.h"
#include "net/server.h"
#include "routed_stack.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::net {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using topics::TopicSet;

class NetCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder b(8, 4);
    for (uint32_t u = 0; u + 1 < 8; ++u) {
      b.AddEdge(u, u + 1, TopicSet::Single(0));
    }
    graph_ = std::make_unique<LabeledGraph>(std::move(b).Build());
    auth_ = std::make_unique<core::AuthorityIndex>(*graph_);
    service::EngineConfig ec;
    ec.num_threads = 1;
    engine_ = std::make_unique<service::QueryEngine>(
        *graph_, *auth_, topics::TwitterSimilarity(), ec);
    ServerConfig cfg;
    // The sweep opens ~250 sequential connections; keep the cap above any
    // transient overlap from TIME_WAIT-free reuse.
    cfg.max_connections = 1024;
    server_ = std::make_unique<Server>(*engine_, cfg);
    ASSERT_TRUE(server_->Start().ok());
  }

  // The front end under test.
  virtual uint16_t Port() const { return server_->port(); }

  int DialRaw() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(Port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  // Sends `bytes`, half-closes the write side, and drains whatever the
  // server sends until it closes. Returns false (and fails the test) on a
  // stall — the sweep's definition of a hang.
  bool SendAndDrain(std::span<const uint8_t> bytes,
                    std::vector<uint8_t>* reply) {
    int fd = DialRaw();
    if (!bytes.empty()) {
      EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(bytes.size()));
    }
    ::shutdown(fd, SHUT_WR);
    uint8_t buf[4096];
    for (;;) {
      pollfd p{fd, POLLIN, 0};
      int r = ::poll(&p, 1, 5000);
      if (r <= 0) {
        ADD_FAILURE() << "server stalled on hostile input";
        ::close(fd);
        return false;
      }
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0) {
        // ECONNRESET counts as a clean refusal of a poisoned stream.
        break;
      }
      if (n == 0) break;
      reply->insert(reply->end(), buf, buf + n);
    }
    ::close(fd);
    return true;
  }

  // Whatever came back must be zero or more well-formed frames; a reply
  // the client-side parser chokes on is a server bug.
  void ExpectWellFormedReplies(const std::vector<uint8_t>& reply) {
    WireLimits limits;
    size_t off = 0;
    while (off < reply.size()) {
      FrameHeader h;
      ASSERT_EQ(ParseFrameHeader({reply.data() + off, reply.size() - off},
                                 limits, &h),
                HeaderParse::kOk)
          << "ill-formed reply bytes at offset " << off;
      ASSERT_LE(off + kFrameHeaderBytes + h.payload_len, reply.size());
      ASSERT_TRUE(
          VerifyPayloadCrc(
              h, {reply.data() + off + kFrameHeaderBytes, h.payload_len})
              .ok());
      ASSERT_TRUE(IsReplyKind(h.kind)) << MessageKindName(h.kind);
      off += kFrameHeaderBytes + h.payload_len;
    }
  }

  void ExpectServerStillAlive() {
    ClientConfig cc;
    cc.port = Port();
    auto client = Client::Connect(cc);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE(client->Ping().ok());
  }

  std::vector<uint8_t> ValidFrame() {
    std::vector<uint8_t> frame;
    AppendFrame(MessageKind::kRecommend, 77, EncodeRecommend({1, 0, 5}),
                &frame);
    return frame;
  }

  // A frame that fills the query's tail: deadline + exclusion list.
  std::vector<uint8_t> RichV2Frame() {
    RecommendRequest req{2, 1, 5};
    req.deadline_ms = 60'000;
    req.exclude = {3, 4, 5};
    std::vector<uint8_t> frame;
    AppendFrame(MessageKind::kRecommend, 78, EncodeRecommend(req), &frame);
    return frame;
  }

  void SweepTruncations(const std::vector<uint8_t>& frame) {
    for (size_t keep = 0; keep < frame.size(); ++keep) {
      SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
      std::vector<uint8_t> reply;
      if (!SendAndDrain({frame.data(), keep}, &reply)) break;
      ExpectWellFormedReplies(reply);
    }
  }

  void SweepBitFlips(const std::vector<uint8_t>& frame) {
    for (size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                     std::to_string(bit));
        std::vector<uint8_t> mutated = frame;
        mutated[byte] ^= static_cast<uint8_t>(1u << bit);
        std::vector<uint8_t> reply;
        if (!SendAndDrain(mutated, &reply)) return;
        ExpectWellFormedReplies(reply);
      }
    }
  }

  // Deterministic xorshift garbage, including a few multi-KB blobs.
  void SweepGarbage() {
    uint64_t state = 0x9E3779B97F4A7C15ull;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return static_cast<uint8_t>(state);
    };
    for (size_t len : {1u, 7u, 24u, 25u, 333u, 4096u}) {
      SCOPED_TRACE("garbage length " + std::to_string(len));
      std::vector<uint8_t> junk(len);
      for (auto& b : junk) b = next();
      std::vector<uint8_t> reply;
      if (!SendAndDrain(junk, &reply)) break;
      ExpectWellFormedReplies(reply);
    }
  }

  // Swaps the read-only server for one with a live MutationApplier, so
  // the mutation-op sweeps run against the real apply path.
  void RestartMutable() {
    server_->RequestStop();
    server_->Wait();
    applier_ = std::make_unique<service::MutationApplier>(*graph_, *auth_,
                                                          *engine_);
    ServerConfig cfg;
    cfg.max_connections = 4096;
    cfg.applier = applier_.get();
    server_ = std::make_unique<Server>(*engine_, cfg);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<LabeledGraph> graph_;
  std::unique_ptr<core::AuthorityIndex> auth_;
  std::unique_ptr<service::QueryEngine> engine_;
  std::unique_ptr<service::MutationApplier> applier_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetCorruptionTest, EveryTruncationClosesCleanly) {
  const std::vector<uint8_t> frame = ValidFrame();
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
    std::vector<uint8_t> reply;
    if (!SendAndDrain({frame.data(), keep}, &reply)) break;
    ExpectWellFormedReplies(reply);
  }
  ExpectServerStillAlive();
}

TEST_F(NetCorruptionTest, EveryBitFlipYieldsErrorOrClose) {
  const std::vector<uint8_t> frame = ValidFrame();
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::vector<uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      std::vector<uint8_t> reply;
      if (!SendAndDrain(mutated, &reply)) {
        ExpectServerStillAlive();
        return;
      }
      ExpectWellFormedReplies(reply);
    }
  }
  ExpectServerStillAlive();
}

TEST_F(NetCorruptionTest, V2DeadlineExcludeFrameSurvivesCorruption) {
  // The query's tail (deadline_ms + exclude list) adds length-prefixed
  // content whose counts can be corrupted independently of the
  // CRC-protected payload; the whole frame gets the same truncation +
  // bit-flip treatment as the plain frame above.
  const std::vector<uint8_t> frame = RichV2Frame();
  SweepTruncations(frame);
  SweepBitFlips(frame);
  ExpectServerStillAlive();
}

TEST_F(NetCorruptionTest, MetricsFrameSurvivesCorruption) {
  std::vector<uint8_t> frame;
  AppendFrame(MessageKind::kMetrics, 80, {}, &frame);
  SweepTruncations(frame);
  SweepBitFlips(frame);
  ExpectServerStillAlive();
}

TEST_F(NetCorruptionTest, RandomGarbageIsSurvivable) {
  SweepGarbage();
  ExpectServerStillAlive();
}

// ---------- Mutation ops (ISSUE 6 satellite) ----------
//
// Same hostile-bytes treatment for the write path, with one extra
// invariant: a malformed mutation frame must NEVER bump the graph epoch.
// The server enforces this by fully decoding the batch before the applier
// is touched, so a frame that fails CRC, bounds, or record validation
// leaves the serving replica exactly as it was.

TEST_F(NetCorruptionTest, TruncatedFollowNeverPartiallyApplies) {
  RestartMutable();
  // Records that WOULD apply if the frame arrived intact (1->3 and 2->5
  // are absent from the chain graph): every truncation must leave the
  // epoch at 0, proving no prefix of a mutation batch is ever applied.
  std::vector<MutationRecord> records = {{1, 3, 0x1}, {2, 5, 0x2}};
  std::vector<uint8_t> frame;
  AppendFrame(MessageKind::kFollow, 90,
              EncodeMutation(MessageKind::kFollow, records), &frame);
  ASSERT_EQ(engine_->params_epoch(), 0u);
  for (size_t keep = 0; keep + 1 < frame.size(); ++keep) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
    std::vector<uint8_t> reply;
    if (!SendAndDrain({frame.data(), keep}, &reply)) break;
    ExpectWellFormedReplies(reply);
    ASSERT_EQ(engine_->params_epoch(), 0u)
        << "a truncated FOLLOW frame mutated the serving replica";
  }
  ExpectServerStillAlive();
  // Sanity: the intact frame does apply — the sweep was exercising a
  // genuinely applyable batch, not one the server would reject anyway.
  std::vector<uint8_t> reply;
  ASSERT_TRUE(SendAndDrain(frame, &reply));
  ExpectWellFormedReplies(reply);
  EXPECT_EQ(engine_->params_epoch(), 1u);
  EXPECT_TRUE(graph_ != nullptr);
}

TEST_F(NetCorruptionTest, BitFlippedFollowNeverBumpsEpoch) {
  RestartMutable();
  // Records the applier always rejects (self-loop, out-of-range dst): a
  // header flip that leaves the frame decodable therefore applies nothing,
  // and any payload flip fails the CRC before decode — so the epoch must
  // stay 0 across the whole sweep.
  std::vector<MutationRecord> records = {{3, 3, 0x1}, {2, 100, 0x2}};
  std::vector<uint8_t> frame;
  AppendFrame(MessageKind::kFollow, 91,
              EncodeMutation(MessageKind::kFollow, records), &frame);
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      // kFollow (7) with bit 1 of the kind field (byte 6) flipped is
      // kShutdown (5): a well-formed frame that legitimately drains the
      // server. Every other flip must leave it serving.
      if (byte == 6 && bit == 1) continue;
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::vector<uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      std::vector<uint8_t> reply;
      if (!SendAndDrain(mutated, &reply)) return;
      ExpectWellFormedReplies(reply);
      ASSERT_EQ(engine_->params_epoch(), 0u)
          << "a corrupted FOLLOW frame mutated the serving replica";
    }
  }
  ExpectServerStillAlive();
}

TEST_F(NetCorruptionTest, UnfollowAndRelabelTruncationsAreClean) {
  RestartMutable();
  std::vector<MutationRecord> unfollow = {{0, 1, 0}};
  std::vector<MutationRecord> relabel = {{0, 1, 0x3}};
  for (const auto& [kind, records] :
       {std::pair{MessageKind::kUnfollow, unfollow},
        std::pair{MessageKind::kRelabel, relabel}}) {
    std::vector<uint8_t> frame;
    AppendFrame(kind, 92, EncodeMutation(kind, records), &frame);
    for (size_t keep = 0; keep + 1 < frame.size(); ++keep) {
      SCOPED_TRACE(std::string(MessageKindName(kind)) + " truncated to " +
                   std::to_string(keep) + " bytes");
      std::vector<uint8_t> reply;
      if (!SendAndDrain({frame.data(), keep}, &reply)) return;
      ExpectWellFormedReplies(reply);
      ASSERT_EQ(engine_->params_epoch(), 0u);
    }
  }
  ExpectServerStillAlive();
}

TEST_F(NetCorruptionTest, MutationOnReadOnlyServerIsRefusedNotFatal) {
  // No RestartMutable(): the default fixture server has no applier. A
  // well-formed FOLLOW must come back as a clean error, not a crash, and
  // the epoch must not move.
  std::vector<MutationRecord> records = {{1, 3, 0x1}};
  std::vector<uint8_t> frame;
  AppendFrame(MessageKind::kFollow, 93,
              EncodeMutation(MessageKind::kFollow, records), &frame);
  std::vector<uint8_t> reply;
  ASSERT_TRUE(SendAndDrain(frame, &reply));
  ExpectWellFormedReplies(reply);
  ASSERT_GE(reply.size(), kFrameHeaderBytes);
  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader({reply.data(), reply.size()}, limits, &h),
            HeaderParse::kOk);
  EXPECT_EQ(h.kind, MessageKind::kError);
  EXPECT_EQ(engine_->params_epoch(), 0u);
  ExpectServerStillAlive();
}

// ---------- The same sweeps against coord::Router over 2 shards ----------
//
// The router answers clients through net::Server, so hostile bytes meet the
// same front end; a frame that survives corruption intact is routed to a
// shard, and the router must still answer a PING after every sweep.

class RouterCorruptionTest : public NetCorruptionTest {
 protected:
  void SetUp() override {
    NetCorruptionTest::SetUp();
    coord::RouterConfig rcfg;
    rcfg.max_connections = 1024;  // as the fixture server: ~250 connections
    routed_ = std::make_unique<coord::RoutedStack>(*graph_, rcfg);
    ASSERT_NE(routed_->router, nullptr);
  }

  uint16_t Port() const override { return routed_->router->port(); }

  std::unique_ptr<coord::RoutedStack> routed_;
};

TEST_F(RouterCorruptionTest, EveryTruncationClosesCleanly) {
  SweepTruncations(ValidFrame());
  ExpectServerStillAlive();
}

TEST_F(RouterCorruptionTest, EveryBitFlipYieldsErrorOrClose) {
  SweepBitFlips(ValidFrame());
  ExpectServerStillAlive();
}

TEST_F(RouterCorruptionTest, RandomGarbageIsSurvivable) {
  SweepGarbage();
  ExpectServerStillAlive();
}

}  // namespace
}  // namespace mbr::net
