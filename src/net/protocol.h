#ifndef MBR_NET_PROTOCOL_H_
#define MBR_NET_PROTOCOL_H_

// Length-prefixed binary wire protocol for the serving subsystem.
//
// Every message on the wire is one frame:
//
//   frame  := magic:u32 ("MBW1") version:u16 kind:u16
//             request_id:u64 payload_len:u32 payload_crc:u32
//             payload[payload_len]
//
// 24 header bytes, little-endian throughout (same host assumption as
// util/serde, statically asserted there). The CRC32 (util::serde::Crc32)
// covers the payload only. Of the header fields, the magic, the payload
// length and the version are checked, so a flipped byte in one of them is
// refused, and a flipped payload byte fails the CRC — before any payload
// field is interpreted. The kind and the request id are not covered: a
// flipped kind is answered as the kind it now names (FOLLOW can turn into
// SHUTDOWN).
//
// Decoding follows the util/serde bounded-read discipline: a PayloadReader
// never reads past the frame's declared payload, every array length is
// validated against both a semantic bound (WireLimits) and the bytes
// actually present before anything is allocated, and every failure is a
// util::Status — a malformed, truncated, or hostile frame yields a clean
// error reply or connection close, never UB
// (tests/net_corruption_test.cc holds a live server to that).
//
// Versioning: there is one layout, stamped kProtocolVersion in every
// frame. Any layout change bumps kProtocolVersion; there is no
// compatibility window, because every peer is built from this tree. A
// server answers a frame stamped with any other version with
// ERROR(UNSUPPORTED_VERSION), echoing its request id, and closes the
// connection once that reply is flushed; a client refuses a reply stamped
// with any other version.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "service/serving_stats.h"
#include "util/status.h"
#include "util/top_k.h"

namespace mbr::net {

// "MBW1" when the little-endian u32 is viewed as bytes.
inline constexpr uint32_t kFrameMagic = 0x3157424DU;
inline constexpr uint16_t kProtocolVersion = 5;
inline constexpr size_t kFrameHeaderBytes = 24;

enum class MessageKind : uint16_t {
  // Requests.
  kPing = 1,
  kRecommend = 2,
  kRecommendBatch = 3,
  kStats = 4,
  kShutdown = 5,
  kMetrics = 6,  // Prometheus text exposition of the server registry
  // Live graph mutations; each frame is one ordered batch of records,
  // answered with MUTATE_ACK after the batch has been applied (or ERROR if
  // the payload is malformed — a malformed frame never mutates the graph).
  kFollow = 7,
  kUnfollow = 8,
  kRelabel = 9,
  // Shard-scoped ops used by the coordinator tier (src/coord). A
  // RECOMMEND_PARTIAL carries an ordinary RECOMMEND payload and asks the
  // user's home shard for the Prop.-4 decomposition of the query instead
  // of a merged ranking; LANDMARK_FETCH asks a shard for the stored lists
  // of landmarks it homes.
  kRecommendPartial = 10,
  kLandmarkFetch = 11,
  // Replies.
  kPong = 64,
  kResult = 65,
  kResultBatch = 66,
  kStatsResult = 67,
  kShutdownAck = 68,
  kError = 69,
  kOverloaded = 70,
  kMetricsResult = 71,
  kMutateAck = 72,
  kPartialResult = 73,
  kLandmarkVectors = 74,
};

const char* MessageKindName(MessageKind kind);
bool IsRequestKind(MessageKind kind);
bool IsReplyKind(MessageKind kind);
// FOLLOW / UNFOLLOW / RELABEL.
bool IsMutationKind(MessageKind kind);

// Decode-side bounds. Both peers use the same limits so a reply the server
// is willing to send is a reply the client is willing to parse.
struct WireLimits {
  uint32_t max_payload_bytes = 1u << 20;  // frame payload cap
  uint32_t max_batch = 4096;              // queries per RECOMMEND_BATCH
  uint32_t max_list = 4096;               // entries per ranked list / top_n
  uint32_t max_error_msg = 1024;          // bytes of ERROR message text
  uint32_t max_exclude = 4096;            // ids per exclusion list
  uint32_t max_mutations = 4096;          // records per mutation frame
  uint32_t max_partial = 1u << 16;        // records per PARTIAL_RESULT
};

struct FrameHeader {
  uint16_t version = 0;
  MessageKind kind = MessageKind::kPing;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

// Appends one complete frame (header + payload) to `out`, stamped with
// kProtocolVersion.
void AppendFrame(MessageKind kind, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out);

// Incremental header parse over a receive buffer.
enum class HeaderParse {
  kOk,        // *out filled; frame payload follows
  kNeedMore,  // fewer than kFrameHeaderBytes available
  kMalformed  // bad magic or payload_len over the limit: close the stream
};
// Only framing-level properties are checked here (magic, length cap).
// Version and kind are surfaced in *out so the caller can still answer
// with a typed ERROR that echoes the request id.
HeaderParse ParseFrameHeader(std::span<const uint8_t> buf,
                             const WireLimits& limits, FrameHeader* out);

// Verifies the payload CRC declared in `header`.
util::Status VerifyPayloadCrc(const FrameHeader& header,
                              std::span<const uint8_t> payload);

// ---------------------------------------------------------------------------
// Bounded payload cursor (serde discipline, frame-local: no sections).

class PayloadWriter {
 public:
  void PutU8(uint8_t v) { PutPod(v); }
  void PutU16(uint16_t v) { PutPod(v); }
  void PutU32(uint32_t v) { PutPod(v); }
  void PutU64(uint64_t v) { PutPod(v); }
  void PutDouble(double v) { PutPod(v); }
  void PutString(const std::string& s);  // u32 length prefix + bytes

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void PutPod(T v) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }
  std::vector<uint8_t> buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  util::Status ReadU8(uint8_t* out) { return ReadPod(out); }
  util::Status ReadU16(uint16_t* out) { return ReadPod(out); }
  util::Status ReadU32(uint32_t* out) { return ReadPod(out); }
  util::Status ReadU64(uint64_t* out) { return ReadPod(out); }
  util::Status ReadDouble(double* out) { return ReadPod(out); }
  // Length-prefixed string, length validated against `max_len` AND the
  // bytes actually remaining before the allocation.
  util::Status ReadString(std::string* out, uint32_t max_len);

  size_t remaining() const { return data_.size() - pos_; }
  // Trailing unread bytes are a schema mismatch, same as serde's
  // ExitSection rule.
  util::Status ExpectEnd() const;

 private:
  template <typename T>
  util::Status ReadPod(T* out) {
    if (remaining() < sizeof(T)) {
      return util::Status::InvalidArgument("payload truncated");
    }
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return util::Status::Ok();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Typed payloads.

struct RecommendRequest {
  uint32_t user = 0;
  uint32_t topic = 0;
  uint32_t top_n = 10;
  // 0 means "no client deadline" (the server still applies its own).
  uint32_t deadline_ms = 0;
  std::vector<uint32_t> exclude;
};

// Wire size of one ranked-list entry (id:u32 + score:f64), and of what
// precedes each list's entries in RESULT / RESULT_BATCH (epoch:u64 +
// served_tier:u8 + count:u32); used to bound a request's worst-case reply
// against max_payload_bytes at admission.
inline constexpr size_t kResultEntryBytes = 12;
inline constexpr size_t kResultListBytes = 13;

using RankedList = std::vector<util::ScoredId>;

// Coordinator trailer on RESULT / RESULT_BATCH: whether the reply was
// degraded to a partial merge (a shard was down/overloaded/late) and how
// many shards answered. The defaults describe a single-node reply, which
// is exactly what a plain server stamps.
struct CoordTrailer {
  uint8_t partial = 0;
  uint16_t shards_answered = 1;
  uint16_t shards_total = 1;
};
// Wire size of the trailer (partial:u8 + answered:u16 + total:u16).
inline constexpr size_t kCoordTrailerBytes = 5;

// A decoded RESULT: the ranked list plus the graph epoch it was computed
// under, the degradation-ladder tier that served it (core::Tier numeric;
// 0 = exact), and the coordinator trailer.
struct ResultReply {
  RankedList entries;
  uint64_t graph_epoch = 0;
  uint8_t served_tier = 0;
  CoordTrailer coord;
};

// Highest core::Tier numeric value a served_tier byte may carry;
// decoders reject anything above it.
inline constexpr uint8_t kMaxServedTier = 2;

// Error codes carried in ERROR replies; a superset mapping of
// util::StatusCode plus protocol-specific conditions.
enum class WireError : uint32_t {
  kInvalidArgument = 1,
  kBadFrame = 2,            // payload CRC mismatch or undecodable payload
  kUnsupportedVersion = 3,  // peer speaks a different kProtocolVersion
  kUnknownKind = 4,
  kDeadlineExceeded = 5,
  kShuttingDown = 6,
  kInternal = 7,
};
const char* WireErrorName(WireError e);

struct ErrorReply {
  WireError code = WireError::kInternal;
  std::string message;
};

// DecodeRecommend, EncodeResult and DecodeResult take an unnamed uint16_t
// third parameter and ignore it: perfbench passes one, and its reply gate
// compares EncodeResult(a, 0, 1) with EncodeResult(b, 0, 1), a byte
// comparison that stays exactly as strict because both sides encode the
// one layout.

// RECOMMEND: user, topic, top_n, deadline_ms, then the exclusion list
// (count-prefixed). RECOMMEND_BATCH: a count, then that many RECOMMEND
// payloads.
std::vector<uint8_t> EncodeRecommend(const RecommendRequest& req);
util::Status DecodeRecommend(std::span<const uint8_t> payload,
                             const WireLimits& limits, uint16_t,
                             RecommendRequest* out);

std::vector<uint8_t> EncodeRecommendBatch(
    const std::vector<RecommendRequest>& reqs);
util::Status DecodeRecommendBatch(std::span<const uint8_t> payload,
                                  const WireLimits& limits,
                                  std::vector<RecommendRequest>* out);

// RESULT: graph epoch, served_tier byte, the ranked list, then the
// coordinator trailer. RESULT_BATCH: a count, then per list its epoch,
// tier byte and entries, then one coordinator trailer for the frame.
std::vector<uint8_t> EncodeResult(const RankedList& list,
                                  uint64_t graph_epoch = 0,
                                  uint16_t = kProtocolVersion,
                                  const CoordTrailer& coord = {},
                                  uint8_t served_tier = 0);
util::Status DecodeResult(std::span<const uint8_t> payload,
                          const WireLimits& limits, uint16_t,
                          RankedList* out, uint64_t* graph_epoch = nullptr,
                          CoordTrailer* coord = nullptr,
                          uint8_t* served_tier = nullptr);

// `epochs` / `tiers` must be empty (all zero) or parallel to `lists`. The
// trailer is per-frame: one batch that was partially merged marks the
// whole frame.
std::vector<uint8_t> EncodeResultBatch(const std::vector<RankedList>& lists,
                                       std::span<const uint64_t> epochs = {},
                                       const CoordTrailer& coord = {},
                                       std::span<const uint8_t> tiers = {});
util::Status DecodeResultBatch(std::span<const uint8_t> payload,
                               const WireLimits& limits,
                               std::vector<RankedList>* out,
                               std::vector<uint64_t>* epochs = nullptr,
                               CoordTrailer* coord = nullptr,
                               std::vector<uint8_t>* tiers = nullptr);

// ---------------------------------------------------------------------------
// Shard payloads (coordinator tier, DESIGN.md §6.7).
//
// A RECOMMEND_PARTIAL request reuses the RECOMMEND payload (user / topic /
// top_n / deadline / exclude; the shard only interprets user, topic and
// deadline — ranking policy stays on the router). The PARTIAL_RESULT reply
// is the home shard's half of Prop. 4: every node reached by the pruned
// depth-limited exploration, in first-reached order, with its σ(u,v,t)
// (and topo_αβ(u,v) when v is a landmark), plus the stored recommendation
// lists of the landmarks met that this shard homes, inlined in record
// order. Landmarks met but homed elsewhere carry no list — the router
// fetches those via LANDMARK_FETCH from their home shards. Replaying the
// records (and lists) in wire order reproduces the single-node combine
// loop addition-for-addition, which is what makes routed replies
// byte-identical to single-node ones.

// PartialRecord.flags bits.
inline constexpr uint8_t kPartialFlagLandmark = 1;  // node is a landmark
inline constexpr uint8_t kPartialFlagInline = 2;    // its list is inlined

struct PartialRecord {
  uint32_t node = 0;
  uint8_t flags = 0;
  double sigma = 0.0;          // σ(u, node, t)
  double topo_alphabeta = 0.0; // topo_αβ(u, node); only sent for landmarks
};

// One stored landmark list: entries mirror landmark::StoredRec order.
struct LandmarkEntry {
  uint32_t node = 0;
  double sigma = 0.0;      // σ(λ, node, t)
  double topo_beta = 0.0;  // topo_β(λ, node)
};
struct LandmarkList {
  uint32_t landmark = 0;
  std::vector<LandmarkEntry> entries;
};

struct PartialReply {
  uint64_t graph_epoch = 0;
  std::vector<PartialRecord> records;  // first-reached order
  std::vector<LandmarkList> lists;     // inline lists, record order
};

struct LandmarkFetchRequest {
  uint32_t topic = 0;
  std::vector<uint32_t> landmarks;
};

struct LandmarkVectorsReply {
  uint64_t graph_epoch = 0;
  std::vector<LandmarkList> lists;  // requested-id order
};

std::vector<uint8_t> EncodePartialReply(const PartialReply& reply);
util::Status DecodePartialReply(std::span<const uint8_t> payload,
                                const WireLimits& limits, PartialReply* out);

std::vector<uint8_t> EncodeLandmarkFetch(const LandmarkFetchRequest& req);
util::Status DecodeLandmarkFetch(std::span<const uint8_t> payload,
                                 const WireLimits& limits,
                                 LandmarkFetchRequest* out);

std::vector<uint8_t> EncodeLandmarkVectors(const LandmarkVectorsReply& reply);
util::Status DecodeLandmarkVectors(std::span<const uint8_t> payload,
                                   const WireLimits& limits,
                                   LandmarkVectorsReply* out);

// ---------------------------------------------------------------------------
// Mutation payloads.
//
// FOLLOW / RELABEL record: src:u32 dst:u32 labels:u64 (TopicSet bits).
// UNFOLLOW record:         src:u32 dst:u32 (labels omitted on the wire).
// Frame payload: count:u32 then `count` records; count must be in
// [1, max_mutations] and match the bytes present.

struct MutationRecord {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t labels = 0;  // ignored for UNFOLLOW
};

struct MutateAck {
  uint32_t applied = 0;
  uint32_t rejected = 0;
  uint64_t graph_epoch = 0;  // engine epoch after the batch
};

std::vector<uint8_t> EncodeMutation(MessageKind kind,
                                    const std::vector<MutationRecord>& records);
util::Status DecodeMutation(std::span<const uint8_t> payload,
                            const WireLimits& limits, MessageKind kind,
                            std::vector<MutationRecord>* out);

std::vector<uint8_t> EncodeMutateAck(const MutateAck& ack);
util::Status DecodeMutateAck(std::span<const uint8_t> payload, MutateAck* out);

// STATS_RESULT: the engine and server counters, the latency percentile
// floors, the coordinator rollup (shards_total / shards_up), then the
// per-tier serving counters (tier_exact / tier_approx / tier_stale /
// degraded).
std::vector<uint8_t> EncodeStats(const service::StatsSnapshot& s);
util::Status DecodeStats(std::span<const uint8_t> payload,
                         service::StatsSnapshot* out);

// METRICS_RESULT carries the Prometheus exposition text. The text
// is bounded by max_payload_bytes like any other payload.
std::vector<uint8_t> EncodeMetricsResult(const std::string& text);
util::Status DecodeMetricsResult(std::span<const uint8_t> payload,
                                 const WireLimits& limits, std::string* out);

std::vector<uint8_t> EncodeError(const ErrorReply& err);
util::Status DecodeError(std::span<const uint8_t> payload,
                         const WireLimits& limits, ErrorReply* out);

// Converts a received ERROR reply into the util::Status a client returns.
util::Status ErrorReplyToStatus(const ErrorReply& err);

}  // namespace mbr::net

#endif  // MBR_NET_PROTOCOL_H_
