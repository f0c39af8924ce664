// Wire protocol unit tests: frame encode/parse, CRC coverage, and the
// bounded payload codecs. Hostile inputs must fail with a clean Status —
// the live-server counterpart of these checks is net_corruption_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "net/protocol.h"

namespace mbr::net {
namespace {

std::vector<uint8_t> Frame(MessageKind kind, uint64_t id,
                           std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  AppendFrame(kind, id, payload, &out);
  return out;
}

TEST(NetProtocolTest, FrameRoundTrip) {
  RecommendRequest req{7, 3, 10};
  std::vector<uint8_t> payload = EncodeRecommend(req);
  std::vector<uint8_t> frame = Frame(MessageKind::kRecommend, 42, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kOk);
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.kind, MessageKind::kRecommend);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, payload.size());

  std::span<const uint8_t> body(frame.data() + kFrameHeaderBytes,
                                h.payload_len);
  ASSERT_TRUE(VerifyPayloadCrc(h, body).ok());
  RecommendRequest back;
  ASSERT_TRUE(DecodeRecommend(body, limits, h.version, &back).ok());
  EXPECT_EQ(back.user, 7u);
  EXPECT_EQ(back.topic, 3u);
  EXPECT_EQ(back.top_n, 10u);
}

TEST(NetProtocolTest, ShortHeaderNeedsMore) {
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 1, {});
  FrameHeader h;
  WireLimits limits;
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_EQ(ParseFrameHeader({frame.data(), n}, limits, &h),
              HeaderParse::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, BadMagicIsMalformed) {
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 1, {});
  frame[0] ^= 0xFF;
  FrameHeader h;
  WireLimits limits;
  EXPECT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kMalformed);
}

TEST(NetProtocolTest, OversizedDeclaredPayloadIsMalformed) {
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 1, {});
  WireLimits limits;
  uint32_t huge = limits.max_payload_bytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));  // payload_len field
  FrameHeader h;
  EXPECT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kMalformed);
}

TEST(NetProtocolTest, CrcCatchesPayloadFlip) {
  std::vector<uint8_t> payload = EncodeRecommend({1, 1, 1});
  std::vector<uint8_t> frame = Frame(MessageKind::kRecommend, 9, payload);
  frame[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kOk);
  std::span<const uint8_t> body(frame.data() + kFrameHeaderBytes,
                                h.payload_len);
  EXPECT_FALSE(VerifyPayloadCrc(h, body).ok());
}

TEST(NetProtocolTest, UnknownVersionStillParsesHeader) {
  // Version is surfaced, not rejected, so the server can send a typed
  // ERROR(UNSUPPORTED_VERSION) echoing the request id.
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 5, {});
  uint16_t future = kProtocolVersion + 1;
  std::memcpy(frame.data() + 4, &future, sizeof(future));
  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kOk);
  EXPECT_EQ(h.version, kProtocolVersion + 1);
  EXPECT_EQ(h.request_id, 5u);
}

TEST(NetProtocolTest, RecommendRejectsZeroAndOversizedTopN) {
  WireLimits limits;
  RecommendRequest out;
  EXPECT_FALSE(
      DecodeRecommend(EncodeRecommend({0, 0, 0}), limits, kProtocolVersion,
                      &out)
          .ok());
  EXPECT_FALSE(
      DecodeRecommend(EncodeRecommend({0, 0, limits.max_list + 1}), limits,
                      kProtocolVersion, &out)
          .ok());
}

TEST(NetProtocolTest, RecommendRejectsTrailingBytes) {
  WireLimits limits;
  std::vector<uint8_t> payload = EncodeRecommend({1, 1, 1});
  payload.push_back(0);
  RecommendRequest out;
  EXPECT_FALSE(
      DecodeRecommend(payload, limits, kProtocolVersion, &out).ok());
}

TEST(NetProtocolTest, BatchRoundTripAndBounds) {
  WireLimits limits;
  std::vector<RecommendRequest> reqs = {{1, 0, 5}, {2, 1, 3}};
  std::vector<RecommendRequest> back;
  ASSERT_TRUE(
      DecodeRecommendBatch(EncodeRecommendBatch(reqs), limits, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].user, 2u);
  EXPECT_EQ(back[1].top_n, 3u);

  // Empty batches and batches over the cap are rejected.
  EXPECT_FALSE(
      DecodeRecommendBatch(EncodeRecommendBatch({}), limits, &back).ok());
  // A declared count far beyond the bytes present must fail before any
  // allocation: craft count=max_batch with a single query's bytes.
  std::vector<uint8_t> lying = EncodeRecommendBatch({{1, 0, 5}});
  std::memcpy(lying.data(), &limits.max_batch, sizeof(uint32_t));
  EXPECT_FALSE(DecodeRecommendBatch(lying, limits, &back).ok());
}

TEST(NetProtocolTest, ResultRoundTripPreservesScores) {
  WireLimits limits;
  RankedList list = {{11, 0.5}, {22, 0.25}, {33, 1e-9}};
  RankedList back;
  uint64_t epoch = 99;
  ASSERT_TRUE(DecodeResult(EncodeResult(list), limits, kProtocolVersion,
                           &back, &epoch)
                  .ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].id, 11u);
  EXPECT_DOUBLE_EQ(back[2].score, 1e-9);
  EXPECT_EQ(epoch, 0u);  // default epoch

  std::vector<RankedList> lists = {list, {}, {{1, 1.0}}};
  std::vector<RankedList> lists_back;
  ASSERT_TRUE(
      DecodeResultBatch(EncodeResultBatch(lists), limits, &lists_back).ok());
  ASSERT_EQ(lists_back.size(), 3u);
  EXPECT_TRUE(lists_back[1].empty());
  EXPECT_EQ(lists_back[2][0].id, 1u);
}

TEST(NetProtocolTest, ResultEntryBytesMatchesEncoding) {
  RankedList one = {{1, 1.0}};
  RankedList two = {{1, 1.0}, {2, 2.0}};
  EXPECT_EQ(EncodeResult(two).size() - EncodeResult(one).size(),
            kResultEntryBytes);
}

TEST(NetProtocolTest, V3ResultCarriesGraphEpoch) {
  WireLimits limits;
  RankedList list = {{11, 0.5}, {22, 0.25}};
  RankedList back;
  uint64_t epoch = 0;
  ASSERT_TRUE(DecodeResult(EncodeResult(list, 7), limits, kProtocolVersion,
                           &back, &epoch)
                  .ok());
  EXPECT_EQ(epoch, 7u);
  ASSERT_EQ(back.size(), 2u);

  // Batch: per-list epochs round-trip.
  std::vector<RankedList> lists = {list, {}};
  std::vector<uint64_t> epochs = {4, 9};
  std::vector<RankedList> lists_back;
  std::vector<uint64_t> epochs_back;
  ASSERT_TRUE(DecodeResultBatch(EncodeResultBatch(lists, epochs), limits,
                                &lists_back, &epochs_back)
                  .ok());
  ASSERT_EQ(lists_back.size(), 2u);
  EXPECT_EQ(epochs_back, (std::vector<uint64_t>{4, 9}));
}

TEST(NetProtocolTest, MutationRoundTripAndBounds) {
  WireLimits limits;
  std::vector<MutationRecord> recs = {{1, 2, 0x5}, {3, 4, 0x1}};
  std::vector<MutationRecord> back;
  ASSERT_TRUE(
      DecodeMutation(EncodeMutation(MessageKind::kFollow, recs), limits,
                     MessageKind::kFollow, &back)
          .ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].src, 1u);
  EXPECT_EQ(back[0].dst, 2u);
  EXPECT_EQ(back[0].labels, 0x5u);

  // UNFOLLOW records omit labels on the wire.
  std::vector<uint8_t> unfollow =
      EncodeMutation(MessageKind::kUnfollow, recs);
  EXPECT_EQ(unfollow.size(), 4u + 2 * 8u);
  ASSERT_TRUE(
      DecodeMutation(unfollow, limits, MessageKind::kUnfollow, &back).ok());
  EXPECT_EQ(back[1].src, 3u);
  EXPECT_EQ(back[1].labels, 0u);

  // Empty batches, oversized batches, and lying counts are rejected.
  EXPECT_FALSE(DecodeMutation(EncodeMutation(MessageKind::kFollow, {}),
                              limits, MessageKind::kFollow, &back)
                   .ok());
  std::vector<uint8_t> lying = EncodeMutation(MessageKind::kFollow, recs);
  std::memcpy(lying.data(), &limits.max_mutations, sizeof(uint32_t));
  EXPECT_FALSE(
      DecodeMutation(lying, limits, MessageKind::kFollow, &back).ok());
  // Every strict prefix fails cleanly.
  std::vector<uint8_t> payload = EncodeMutation(MessageKind::kRelabel, recs);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeMutation({payload.data(), n}, limits,
                                MessageKind::kRelabel, &back)
                     .ok())
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, MutateAckRoundTrip) {
  MutateAck ack{3, 1, 42};
  MutateAck back;
  ASSERT_TRUE(DecodeMutateAck(EncodeMutateAck(ack), &back).ok());
  EXPECT_EQ(back.applied, 3u);
  EXPECT_EQ(back.rejected, 1u);
  EXPECT_EQ(back.graph_epoch, 42u);
  std::vector<uint8_t> payload = EncodeMutateAck(ack);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeMutateAck({payload.data(), n}, &back).ok());
  }
}

TEST(NetProtocolTest, StatsRoundTrip) {
  service::StatsSnapshot s;
  s.queries = 100;
  s.cache_hits = 40;
  s.cache_misses = 60;
  s.shed_overload = 3;
  s.connections_accepted = 17;
  s.deadline_exceeded = 5;
  s.p99_us = 1024.0;
  service::StatsSnapshot back;
  ASSERT_TRUE(DecodeStats(EncodeStats(s), &back).ok());
  EXPECT_EQ(back.queries, 100u);
  EXPECT_EQ(back.shed_overload, 3u);
  EXPECT_EQ(back.connections_accepted, 17u);
  EXPECT_DOUBLE_EQ(back.p99_us, 1024.0);
  EXPECT_DOUBLE_EQ(back.HitRate(), 0.4);
  EXPECT_EQ(back.deadline_exceeded, 5u);
}

TEST(NetProtocolTest, ErrorRoundTripAndStatusMapping) {
  WireLimits limits;
  ErrorReply err{WireError::kDeadlineExceeded, "too slow"};
  ErrorReply back;
  ASSERT_TRUE(DecodeError(EncodeError(err), limits, &back).ok());
  EXPECT_EQ(back.code, WireError::kDeadlineExceeded);
  EXPECT_EQ(back.message, "too slow");
  EXPECT_EQ(ErrorReplyToStatus(back).code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      ErrorReplyToStatus({WireError::kShuttingDown, ""}).code(),
      util::StatusCode::kUnavailable);
  EXPECT_EQ(
      ErrorReplyToStatus({WireError::kInvalidArgument, ""}).code(),
      util::StatusCode::kInvalidArgument);

  // An ERROR whose message exceeds the cap must not allocate/accept it.
  ErrorReply big{WireError::kInternal,
                 std::string(limits.max_error_msg + 1, 'x')};
  EXPECT_FALSE(DecodeError(EncodeError(big), limits, &back).ok());
}

TEST(NetProtocolTest, PayloadReaderStopsAtTruncation) {
  // Truncate a valid batch payload at every length; decode must never read
  // out of bounds (ASan) and must fail for every strict prefix.
  WireLimits limits;
  std::vector<uint8_t> payload =
      EncodeRecommendBatch({{1, 0, 5}, {2, 1, 3}, {3, 2, 7}});
  std::vector<RecommendRequest> out;
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeRecommendBatch({payload.data(), n}, limits, &out).ok())
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, V2RecommendCarriesDeadlineAndExclude) {
  WireLimits limits;
  RecommendRequest req;
  req.user = 9;
  req.topic = 2;
  req.top_n = 4;
  req.deadline_ms = 250;
  req.exclude = {3, 14, 15};
  RecommendRequest back;
  ASSERT_TRUE(DecodeRecommend(EncodeRecommend(req), limits, kProtocolVersion,
                              &back)
                  .ok());
  EXPECT_EQ(back.user, 9u);
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_EQ(back.exclude, (std::vector<uint32_t>{3, 14, 15}));
}

TEST(NetProtocolTest, V2RecommendRejectsOversizedExclude) {
  WireLimits limits;
  limits.max_exclude = 4;
  RecommendRequest req;
  req.user = 1;
  req.topic = 0;
  req.top_n = 5;
  req.exclude = {1, 2, 3, 4, 5};
  RecommendRequest back;
  EXPECT_FALSE(DecodeRecommend(EncodeRecommend(req), limits, kProtocolVersion,
                               &back)
                   .ok());
  req.exclude = {1, 2, 3, 4};
  EXPECT_TRUE(DecodeRecommend(EncodeRecommend(req), limits, kProtocolVersion,
                              &back)
                  .ok());
}

TEST(NetProtocolTest, V2BatchRoundTripsPerQueryTails) {
  WireLimits limits;
  RecommendRequest a;
  a.user = 1;
  a.topic = 0;
  a.top_n = 5;
  a.exclude = {7};
  RecommendRequest b;
  b.user = 2;
  b.topic = 1;
  b.top_n = 3;
  b.deadline_ms = 100;
  std::vector<RecommendRequest> back;
  ASSERT_TRUE(
      DecodeRecommendBatch(EncodeRecommendBatch({a, b}), limits, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].exclude, std::vector<uint32_t>{7});
  EXPECT_EQ(back[0].deadline_ms, 0u);
  EXPECT_TRUE(back[1].exclude.empty());
  EXPECT_EQ(back[1].deadline_ms, 100u);
}

TEST(NetProtocolTest, V2PayloadTruncationFailsCleanly) {
  WireLimits limits;
  RecommendRequest req;
  req.user = 1;
  req.topic = 0;
  req.top_n = 5;
  req.deadline_ms = 9;
  req.exclude = {1, 2, 3};
  std::vector<uint8_t> payload = EncodeRecommend(req);
  RecommendRequest out;
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeRecommend({payload.data(), n}, limits,
                                 kProtocolVersion, &out)
                     .ok())
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, MetricsResultRoundTrip) {
  WireLimits limits;
  const std::string text =
      "# HELP mbr_engine_queries_total Queries.\n"
      "# TYPE mbr_engine_queries_total counter\n"
      "mbr_engine_queries_total 42\n";
  std::string back;
  ASSERT_TRUE(
      DecodeMetricsResult(EncodeMetricsResult(text), limits, &back).ok());
  EXPECT_EQ(back, text);

  // Truncated payloads fail cleanly.
  std::vector<uint8_t> payload = EncodeMetricsResult(text);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(
        DecodeMetricsResult({payload.data(), n}, limits, &back).ok());
  }
}

TEST(NetProtocolTest, KindNamesAndClasses) {
  EXPECT_STREQ(MessageKindName(MessageKind::kRecommend), "RECOMMEND");
  EXPECT_TRUE(IsRequestKind(MessageKind::kRecommend));
  EXPECT_FALSE(IsReplyKind(MessageKind::kRecommend));
  EXPECT_TRUE(IsReplyKind(MessageKind::kOverloaded));
  EXPECT_STREQ(MessageKindName(MessageKind::kMetrics), "METRICS");
  EXPECT_TRUE(IsRequestKind(MessageKind::kMetrics));
  EXPECT_TRUE(IsReplyKind(MessageKind::kMetricsResult));
  EXPECT_FALSE(IsRequestKind(static_cast<MessageKind>(200)));
  EXPECT_STREQ(MessageKindName(MessageKind::kFollow), "FOLLOW");
  EXPECT_STREQ(MessageKindName(MessageKind::kMutateAck), "MUTATE_ACK");
  EXPECT_TRUE(IsRequestKind(MessageKind::kUnfollow));
  EXPECT_TRUE(IsReplyKind(MessageKind::kMutateAck));
  EXPECT_TRUE(IsMutationKind(MessageKind::kRelabel));
  EXPECT_FALSE(IsMutationKind(MessageKind::kRecommend));
}

// ---- The served_tier byte (degradation ladder). ----

TEST(NetProtocolTest, V5ResultCarriesServedTier) {
  WireLimits limits;
  RankedList list = {{11, 0.5}, {22, 0.25}};
  CoordTrailer trailer;
  trailer.partial = 1;
  trailer.shards_answered = 3;
  trailer.shards_total = 4;

  RankedList back;
  uint64_t epoch = 0;
  CoordTrailer tback;
  uint8_t tier = 0;
  ASSERT_TRUE(DecodeResult(EncodeResult(list, 7, kProtocolVersion, trailer, 2),
                           limits, kProtocolVersion, &back, &epoch, &tback,
                           &tier)
                  .ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(tier, 2u);  // stale
  EXPECT_EQ(tback.partial, 1u);
  EXPECT_EQ(tback.shards_answered, 3u);

  // An encode defaults the tier to 0 (exact) when the caller omits it.
  ASSERT_TRUE(DecodeResult(EncodeResult(list, 7), limits, kProtocolVersion,
                           &back, &epoch, nullptr, &tier)
                  .ok());
  EXPECT_EQ(tier, 0u);
}

TEST(NetProtocolTest, V5InteropPinsV1ThroughV4Layouts) {
  RankedList list = {{11, 0.5}, {22, 0.25}};
  const size_t n = list.size();
  CoordTrailer trailer;
  trailer.partial = 1;
  trailer.shards_answered = 2;
  trailer.shards_total = 3;

  // Layout pin: [epoch u64][served_tier u8][count u32 + 12B/entry]
  // [coord trailer: partial u8, answered u16, total u16].
  const std::vector<uint8_t> v5 =
      EncodeResult(list, 7, kProtocolVersion, trailer, 1);
  ASSERT_EQ(v5.size(), 8 + 1 + 4 + n * kResultEntryBytes + kCoordTrailerBytes);
  uint64_t epoch = 0;
  std::memcpy(&epoch, v5.data(), sizeof(epoch));
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(v5[8], 1u);  // the served_tier byte
  uint32_t count = 0;
  std::memcpy(&count, v5.data() + 9, sizeof(count));
  EXPECT_EQ(count, n);
  uint32_t first_id = 0;
  std::memcpy(&first_id, v5.data() + 13, sizeof(first_id));
  EXPECT_EQ(first_id, 11u);
  const size_t tail = v5.size() - kCoordTrailerBytes;
  uint16_t answered = 0;
  uint16_t total = 0;
  std::memcpy(&answered, v5.data() + tail + 1, sizeof(answered));
  std::memcpy(&total, v5.data() + tail + 3, sizeof(total));
  EXPECT_EQ(v5[tail], 1u);  // partial
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(total, 3u);
}

TEST(NetProtocolTest, V5ServedTierOutOfRangeIsRejected) {
  WireLimits limits;
  RankedList list = {{11, 0.5}};
  std::vector<uint8_t> payload =
      EncodeResult(list, 7, kProtocolVersion, {}, 2);
  payload[8] = 3;  // one past kMaxServedTier
  RankedList back;
  util::Status st = DecodeResult(payload, limits, kProtocolVersion, &back);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  payload[8] = 255;
  EXPECT_FALSE(DecodeResult(payload, limits, kProtocolVersion, &back).ok());
}

TEST(NetProtocolTest, V5BatchCarriesPerListTiers) {
  WireLimits limits;
  std::vector<RankedList> lists = {{{11, 0.5}}, {}, {{1, 1.0}, {2, 2.0}}};
  std::vector<uint64_t> epochs = {4, 9, 4};
  std::vector<uint8_t> tiers = {0, 2, 1};

  std::vector<RankedList> lists_back;
  std::vector<uint64_t> epochs_back;
  std::vector<uint8_t> tiers_back;
  ASSERT_TRUE(DecodeResultBatch(EncodeResultBatch(lists, epochs, {}, tiers),
                                limits, &lists_back, &epochs_back, nullptr,
                                &tiers_back)
                  .ok());
  ASSERT_EQ(lists_back.size(), 3u);
  EXPECT_EQ(epochs_back, epochs);
  EXPECT_EQ(tiers_back, tiers);

  // Omitted tiers encode as 0.
  ASSERT_TRUE(DecodeResultBatch(EncodeResultBatch(lists, epochs), limits,
                                &lists_back, nullptr, nullptr, &tiers_back)
                  .ok());
  EXPECT_EQ(tiers_back, (std::vector<uint8_t>{0, 0, 0}));

  // A batch with one out-of-range tier byte fails as a whole.
  const std::vector<uint8_t> bad_tiers = {0, 3, 1};
  std::vector<uint8_t> bad = EncodeResultBatch(lists, epochs, {}, bad_tiers);
  EXPECT_FALSE(DecodeResultBatch(bad, limits, &lists_back).ok());
}

TEST(NetProtocolTest, V5StatsCarriesTierCounters) {
  service::StatsSnapshot s;
  s.queries = 10;
  s.tier_exact = 6;
  s.tier_approx = 3;
  s.tier_stale = 1;
  s.degraded = 4;
  service::StatsSnapshot back;
  ASSERT_TRUE(DecodeStats(EncodeStats(s), &back).ok());
  EXPECT_EQ(back.tier_exact, 6u);
  EXPECT_EQ(back.tier_approx, 3u);
  EXPECT_EQ(back.tier_stale, 1u);
  EXPECT_EQ(back.degraded, 4u);
}

// Hostile-bytes sweep over the RESULT codecs: every single-byte
// truncation and every single-bit flip of a valid payload must either
// decode to in-range values or fail with a clean Status — never crash,
// and never hand back a served_tier outside the enum.
TEST(NetProtocolTest, V5ResultSurvivesTruncationAndBitFlips) {
  WireLimits limits;
  std::vector<RankedList> lists = {{{11, 0.5}, {22, 0.25}}, {{1, 1.0}}};
  CoordTrailer trailer;
  trailer.shards_total = 2;
  trailer.shards_answered = 2;
  const std::vector<uint8_t> single =
      EncodeResult(lists[0], 7, kProtocolVersion, trailer, 1);
  const std::vector<uint64_t> sweep_epochs = {7, 8};
  const std::vector<uint8_t> sweep_tiers = {1, 2};
  const std::vector<uint8_t> batch =
      EncodeResultBatch(lists, sweep_epochs, trailer, sweep_tiers);

  for (size_t keep = 0; keep < single.size(); ++keep) {
    RankedList back;
    std::vector<uint8_t> cut(single.begin(), single.begin() + keep);
    EXPECT_FALSE(DecodeResult(cut, limits, kProtocolVersion, &back).ok())
        << "truncated to " << keep << " bytes";
  }
  for (size_t keep = 0; keep < batch.size(); ++keep) {
    std::vector<RankedList> back;
    std::vector<uint8_t> cut(batch.begin(), batch.begin() + keep);
    EXPECT_FALSE(DecodeResultBatch(cut, limits, &back).ok())
        << "batch truncated to " << keep << " bytes";
  }
  for (size_t byte = 0; byte < batch.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = batch;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      std::vector<RankedList> back;
      std::vector<uint8_t> tiers;
      util::Status st =
          DecodeResultBatch(flipped, limits, &back, nullptr, nullptr, &tiers);
      if (st.ok()) {
        for (uint8_t t : tiers) {
          EXPECT_LE(t, kMaxServedTier)
              << "flip byte " << byte << " bit " << bit;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mbr::net
