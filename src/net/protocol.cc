#include "net/protocol.h"

#include "util/serde.h"

namespace mbr::net {

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPing:
      return "PING";
    case MessageKind::kRecommend:
      return "RECOMMEND";
    case MessageKind::kRecommendBatch:
      return "RECOMMEND_BATCH";
    case MessageKind::kStats:
      return "STATS";
    case MessageKind::kShutdown:
      return "SHUTDOWN";
    case MessageKind::kMetrics:
      return "METRICS";
    case MessageKind::kFollow:
      return "FOLLOW";
    case MessageKind::kUnfollow:
      return "UNFOLLOW";
    case MessageKind::kRelabel:
      return "RELABEL";
    case MessageKind::kRecommendPartial:
      return "RECOMMEND_PARTIAL";
    case MessageKind::kLandmarkFetch:
      return "LANDMARK_FETCH";
    case MessageKind::kPong:
      return "PONG";
    case MessageKind::kResult:
      return "RESULT";
    case MessageKind::kResultBatch:
      return "RESULT_BATCH";
    case MessageKind::kStatsResult:
      return "STATS_RESULT";
    case MessageKind::kShutdownAck:
      return "SHUTDOWN_ACK";
    case MessageKind::kError:
      return "ERROR";
    case MessageKind::kOverloaded:
      return "OVERLOADED";
    case MessageKind::kMetricsResult:
      return "METRICS_RESULT";
    case MessageKind::kMutateAck:
      return "MUTATE_ACK";
    case MessageKind::kPartialResult:
      return "PARTIAL_RESULT";
    case MessageKind::kLandmarkVectors:
      return "LANDMARK_VECTORS";
  }
  return "UNKNOWN";
}

bool IsRequestKind(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPing:
    case MessageKind::kRecommend:
    case MessageKind::kRecommendBatch:
    case MessageKind::kStats:
    case MessageKind::kShutdown:
    case MessageKind::kMetrics:
    case MessageKind::kFollow:
    case MessageKind::kUnfollow:
    case MessageKind::kRelabel:
    case MessageKind::kRecommendPartial:
    case MessageKind::kLandmarkFetch:
      return true;
    default:
      return false;
  }
}

bool IsReplyKind(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPong:
    case MessageKind::kResult:
    case MessageKind::kResultBatch:
    case MessageKind::kStatsResult:
    case MessageKind::kShutdownAck:
    case MessageKind::kError:
    case MessageKind::kOverloaded:
    case MessageKind::kMetricsResult:
    case MessageKind::kMutateAck:
    case MessageKind::kPartialResult:
    case MessageKind::kLandmarkVectors:
      return true;
    default:
      return false;
  }
}

bool IsMutationKind(MessageKind kind) {
  return kind == MessageKind::kFollow || kind == MessageKind::kUnfollow ||
         kind == MessageKind::kRelabel;
}

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireError::kBadFrame:
      return "BAD_FRAME";
    case WireError::kUnsupportedVersion:
      return "UNSUPPORTED_VERSION";
    case WireError::kUnknownKind:
      return "UNKNOWN_KIND";
    case WireError::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireError::kShuttingDown:
      return "SHUTTING_DOWN";
    case WireError::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

namespace {

template <typename T>
void AppendPod(T v, std::vector<uint8_t>* out) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

}  // namespace

void AppendFrame(MessageKind kind, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  AppendPod(kFrameMagic, out);
  AppendPod(kProtocolVersion, out);
  AppendPod(static_cast<uint16_t>(kind), out);
  AppendPod(request_id, out);
  AppendPod(static_cast<uint32_t>(payload.size()), out);
  AppendPod(util::serde::Crc32(payload.data(), payload.size()), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

HeaderParse ParseFrameHeader(std::span<const uint8_t> buf,
                             const WireLimits& limits, FrameHeader* out) {
  if (buf.size() < kFrameHeaderBytes) return HeaderParse::kNeedMore;
  size_t off = 0;
  auto read = [&](auto* v) {
    std::memcpy(v, buf.data() + off, sizeof(*v));
    off += sizeof(*v);
  };
  uint32_t magic = 0;
  uint16_t kind_raw = 0;
  read(&magic);
  read(&out->version);
  read(&kind_raw);
  read(&out->request_id);
  read(&out->payload_len);
  read(&out->payload_crc);
  out->kind = static_cast<MessageKind>(kind_raw);
  if (magic != kFrameMagic) return HeaderParse::kMalformed;
  if (out->payload_len > limits.max_payload_bytes) {
    return HeaderParse::kMalformed;
  }
  return HeaderParse::kOk;
}

util::Status VerifyPayloadCrc(const FrameHeader& header,
                              std::span<const uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    return util::Status::InvalidArgument("payload size mismatch");
  }
  const uint32_t crc = util::serde::Crc32(payload.data(), payload.size());
  if (crc != header.payload_crc) {
    return util::Status::InvalidArgument("payload CRC mismatch");
  }
  return util::Status::Ok();
}

void PayloadWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  const uint8_t* p = reinterpret_cast<const uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

util::Status PayloadReader::ReadString(std::string* out, uint32_t max_len) {
  uint32_t len = 0;
  MBR_RETURN_IF_ERROR(ReadU32(&len));
  if (len > max_len) {
    return util::Status::InvalidArgument("string length " +
                                         std::to_string(len) +
                                         " exceeds bound " +
                                         std::to_string(max_len));
  }
  if (len > remaining()) {
    return util::Status::InvalidArgument(
        "string length exceeds remaining payload bytes");
  }
  out->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return util::Status::Ok();
}

util::Status PayloadReader::ExpectEnd() const {
  if (remaining() != 0) {
    return util::Status::InvalidArgument(
        std::to_string(remaining()) + " unconsumed payload bytes");
  }
  return util::Status::Ok();
}

// --------------------------------------------------------------------------
// Typed payloads.

namespace {

void PutQuery(const RecommendRequest& req, PayloadWriter* w) {
  w->PutU32(req.user);
  w->PutU32(req.topic);
  w->PutU32(req.top_n);
  w->PutU32(req.deadline_ms);
  w->PutU32(static_cast<uint32_t>(req.exclude.size()));
  for (uint32_t id : req.exclude) w->PutU32(id);
}

util::Status ReadQuery(PayloadReader* r, const WireLimits& limits,
                       RecommendRequest* out) {
  MBR_RETURN_IF_ERROR(r->ReadU32(&out->user));
  MBR_RETURN_IF_ERROR(r->ReadU32(&out->topic));
  MBR_RETURN_IF_ERROR(r->ReadU32(&out->top_n));
  MBR_RETURN_IF_ERROR(r->ReadU32(&out->deadline_ms));
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r->ReadU32(&n));
  if (n > limits.max_exclude) {
    return util::Status::InvalidArgument(
        "exclude list length " + std::to_string(n) + " exceeds bound " +
        std::to_string(limits.max_exclude));
  }
  if (n > r->remaining() / 4) {
    return util::Status::InvalidArgument(
        "exclude list length exceeds remaining payload bytes");
  }
  out->exclude.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MBR_RETURN_IF_ERROR(r->ReadU32(&out->exclude[i]));
  }
  return util::Status::Ok();
}

// Smallest query: user/topic/top_n/deadline_ms and an empty exclusion
// list's count.
constexpr size_t kQueryBytes = 20;
constexpr size_t kEntryBytes = kResultEntryBytes;  // id:u32 + score:f64

void PutList(const RankedList& list, PayloadWriter* w) {
  w->PutU32(static_cast<uint32_t>(list.size()));
  for (const util::ScoredId& e : list) {
    w->PutU32(e.id);
    w->PutDouble(e.score);
  }
}

util::Status ReadList(PayloadReader* r, const WireLimits& limits,
                      RankedList* out) {
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r->ReadU32(&n));
  if (n > limits.max_list) {
    return util::Status::InvalidArgument("ranked list length " +
                                         std::to_string(n) +
                                         " exceeds bound " +
                                         std::to_string(limits.max_list));
  }
  if (n > r->remaining() / kEntryBytes) {
    return util::Status::InvalidArgument(
        "ranked list length exceeds remaining payload bytes");
  }
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MBR_RETURN_IF_ERROR(r->ReadU32(&(*out)[i].id));
    MBR_RETURN_IF_ERROR(r->ReadDouble(&(*out)[i].score));
  }
  return util::Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodeRecommend(const RecommendRequest& req) {
  PayloadWriter w;
  PutQuery(req, &w);
  return w.Take();
}

util::Status DecodeRecommend(std::span<const uint8_t> payload,
                             const WireLimits& limits, uint16_t,
                             RecommendRequest* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(ReadQuery(&r, limits, out));
  MBR_RETURN_IF_ERROR(r.ExpectEnd());
  if (out->top_n == 0 || out->top_n > limits.max_list) {
    return util::Status::InvalidArgument(
        "top_n must be in [1, " + std::to_string(limits.max_list) + "]");
  }
  return util::Status::Ok();
}

std::vector<uint8_t> EncodeRecommendBatch(
    const std::vector<RecommendRequest>& reqs) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(reqs.size()));
  for (const RecommendRequest& q : reqs) PutQuery(q, &w);
  return w.Take();
}

util::Status DecodeRecommendBatch(std::span<const uint8_t> payload,
                                  const WireLimits& limits,
                                  std::vector<RecommendRequest>* out) {
  PayloadReader r(payload);
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&n));
  if (n == 0 || n > limits.max_batch) {
    return util::Status::InvalidArgument(
        "batch size must be in [1, " + std::to_string(limits.max_batch) +
        "], got " + std::to_string(n));
  }
  if (n > r.remaining() / kQueryBytes) {
    return util::Status::InvalidArgument(
        "batch size exceeds remaining payload bytes");
  }
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MBR_RETURN_IF_ERROR(ReadQuery(&r, limits, &(*out)[i]));
    if ((*out)[i].top_n == 0 || (*out)[i].top_n > limits.max_list) {
      return util::Status::InvalidArgument(
          "top_n must be in [1, " + std::to_string(limits.max_list) + "]");
    }
  }
  return r.ExpectEnd();
}

namespace {

// served_tier byte: read + range-check (core::Tier has 3 values; an
// out-of-range byte is a corrupt or hostile frame, not a future tier —
// new tiers mean a new protocol version).
util::Status ReadServedTier(PayloadReader* r, uint8_t* out) {
  uint8_t t = 0;
  MBR_RETURN_IF_ERROR(r->ReadU8(&t));
  if (t > kMaxServedTier) {
    return util::Status::InvalidArgument("served_tier byte " +
                                         std::to_string(t) +
                                         " out of range");
  }
  if (out != nullptr) *out = t;
  return util::Status::Ok();
}

void PutCoordTrailer(const CoordTrailer& coord, PayloadWriter* w) {
  w->PutU8(coord.partial);
  w->PutU16(coord.shards_answered);
  w->PutU16(coord.shards_total);
}

util::Status ReadCoordTrailer(PayloadReader* r, CoordTrailer* out) {
  CoordTrailer c;
  MBR_RETURN_IF_ERROR(r->ReadU8(&c.partial));
  MBR_RETURN_IF_ERROR(r->ReadU16(&c.shards_answered));
  MBR_RETURN_IF_ERROR(r->ReadU16(&c.shards_total));
  if (out != nullptr) *out = c;
  return util::Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodeResult(const RankedList& list, uint64_t graph_epoch,
                                  uint16_t, const CoordTrailer& coord,
                                  uint8_t served_tier) {
  PayloadWriter w;
  w.PutU64(graph_epoch);
  w.PutU8(served_tier);
  PutList(list, &w);
  PutCoordTrailer(coord, &w);
  return w.Take();
}

util::Status DecodeResult(std::span<const uint8_t> payload,
                          const WireLimits& limits, uint16_t,
                          RankedList* out, uint64_t* graph_epoch,
                          CoordTrailer* coord, uint8_t* served_tier) {
  PayloadReader r(payload);
  uint64_t epoch = 0;
  MBR_RETURN_IF_ERROR(r.ReadU64(&epoch));
  if (graph_epoch != nullptr) *graph_epoch = epoch;
  MBR_RETURN_IF_ERROR(ReadServedTier(&r, served_tier));
  MBR_RETURN_IF_ERROR(ReadList(&r, limits, out));
  MBR_RETURN_IF_ERROR(ReadCoordTrailer(&r, coord));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeResultBatch(const std::vector<RankedList>& lists,
                                       std::span<const uint64_t> epochs,
                                       const CoordTrailer& coord,
                                       std::span<const uint8_t> tiers) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(lists.size()));
  for (size_t i = 0; i < lists.size(); ++i) {
    w.PutU64(epochs.empty() ? 0 : epochs[i]);
    w.PutU8(tiers.empty() ? 0 : tiers[i]);
    PutList(lists[i], &w);
  }
  PutCoordTrailer(coord, &w);
  return w.Take();
}

util::Status DecodeResultBatch(std::span<const uint8_t> payload,
                               const WireLimits& limits,
                               std::vector<RankedList>* out,
                               std::vector<uint64_t>* epochs,
                               CoordTrailer* coord,
                               std::vector<uint8_t>* tiers) {
  PayloadReader r(payload);
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&n));
  if (n > limits.max_batch) {
    return util::Status::InvalidArgument("result batch length " +
                                         std::to_string(n) +
                                         " exceeds bound " +
                                         std::to_string(limits.max_batch));
  }
  if (n > r.remaining() / kResultListBytes) {
    return util::Status::InvalidArgument(
        "result batch length exceeds remaining payload bytes");
  }
  out->resize(n);
  if (epochs != nullptr) epochs->assign(n, 0);
  if (tiers != nullptr) tiers->assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t e = 0;
    MBR_RETURN_IF_ERROR(r.ReadU64(&e));
    if (epochs != nullptr) (*epochs)[i] = e;
    uint8_t t = 0;
    MBR_RETURN_IF_ERROR(ReadServedTier(&r, &t));
    if (tiers != nullptr) (*tiers)[i] = t;
    MBR_RETURN_IF_ERROR(ReadList(&r, limits, &(*out)[i]));
  }
  MBR_RETURN_IF_ERROR(ReadCoordTrailer(&r, coord));
  return r.ExpectEnd();
}

namespace {

// Wire sizes of the shard payload pieces: a non-landmark record is
// node:u32 + flags:u8 + sigma:f64, a landmark record appends topo_αβ:f64,
// a landmark-list entry is node:u32 + sigma:f64 + topo_β:f64.
constexpr size_t kPartialRecordMinBytes = 13;
constexpr size_t kLandmarkEntryBytes = 20;

void PutLandmarkList(const LandmarkList& list, PayloadWriter* w) {
  w->PutU32(list.landmark);
  w->PutU32(static_cast<uint32_t>(list.entries.size()));
  for (const LandmarkEntry& e : list.entries) {
    w->PutU32(e.node);
    w->PutDouble(e.sigma);
    w->PutDouble(e.topo_beta);
  }
}

util::Status ReadLandmarkList(PayloadReader* r, const WireLimits& limits,
                              LandmarkList* out) {
  MBR_RETURN_IF_ERROR(r->ReadU32(&out->landmark));
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r->ReadU32(&n));
  if (n > limits.max_list) {
    return util::Status::InvalidArgument(
        "landmark list length " + std::to_string(n) + " exceeds bound " +
        std::to_string(limits.max_list));
  }
  if (n > r->remaining() / kLandmarkEntryBytes) {
    return util::Status::InvalidArgument(
        "landmark list length exceeds remaining payload bytes");
  }
  out->entries.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    LandmarkEntry& e = out->entries[i];
    MBR_RETURN_IF_ERROR(r->ReadU32(&e.node));
    MBR_RETURN_IF_ERROR(r->ReadDouble(&e.sigma));
    MBR_RETURN_IF_ERROR(r->ReadDouble(&e.topo_beta));
  }
  return util::Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodePartialReply(const PartialReply& reply) {
  PayloadWriter w;
  w.PutU64(reply.graph_epoch);
  w.PutU32(static_cast<uint32_t>(reply.records.size()));
  for (const PartialRecord& rec : reply.records) {
    w.PutU32(rec.node);
    w.PutU8(rec.flags);
    w.PutDouble(rec.sigma);
    if (rec.flags & kPartialFlagLandmark) w.PutDouble(rec.topo_alphabeta);
  }
  w.PutU32(static_cast<uint32_t>(reply.lists.size()));
  for (const LandmarkList& list : reply.lists) PutLandmarkList(list, &w);
  return w.Take();
}

util::Status DecodePartialReply(std::span<const uint8_t> payload,
                                const WireLimits& limits, PartialReply* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->graph_epoch));
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&n));
  if (n > limits.max_partial) {
    return util::Status::InvalidArgument(
        "partial record count " + std::to_string(n) + " exceeds bound " +
        std::to_string(limits.max_partial));
  }
  if (n > r.remaining() / kPartialRecordMinBytes) {
    return util::Status::InvalidArgument(
        "partial record count exceeds remaining payload bytes");
  }
  out->records.resize(n);
  uint32_t inline_lists = 0;
  for (uint32_t i = 0; i < n; ++i) {
    PartialRecord& rec = out->records[i];
    MBR_RETURN_IF_ERROR(r.ReadU32(&rec.node));
    MBR_RETURN_IF_ERROR(r.ReadU8(&rec.flags));
    if (rec.flags &
        ~static_cast<uint8_t>(kPartialFlagLandmark | kPartialFlagInline)) {
      return util::Status::InvalidArgument("unknown partial record flags");
    }
    if ((rec.flags & kPartialFlagInline) &&
        !(rec.flags & kPartialFlagLandmark)) {
      return util::Status::InvalidArgument(
          "inline flag on a non-landmark partial record");
    }
    MBR_RETURN_IF_ERROR(r.ReadDouble(&rec.sigma));
    rec.topo_alphabeta = 0.0;
    if (rec.flags & kPartialFlagLandmark) {
      MBR_RETURN_IF_ERROR(r.ReadDouble(&rec.topo_alphabeta));
    }
    if (rec.flags & kPartialFlagInline) ++inline_lists;
  }
  uint32_t lists = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&lists));
  if (lists != inline_lists) {
    return util::Status::InvalidArgument(
        "inline list count " + std::to_string(lists) +
        " does not match flagged records (" + std::to_string(inline_lists) +
        ")");
  }
  out->lists.resize(lists);
  for (uint32_t i = 0; i < lists; ++i) {
    MBR_RETURN_IF_ERROR(ReadLandmarkList(&r, limits, &out->lists[i]));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeLandmarkFetch(const LandmarkFetchRequest& req) {
  PayloadWriter w;
  w.PutU32(req.topic);
  w.PutU32(static_cast<uint32_t>(req.landmarks.size()));
  for (uint32_t id : req.landmarks) w.PutU32(id);
  return w.Take();
}

util::Status DecodeLandmarkFetch(std::span<const uint8_t> payload,
                                 const WireLimits& limits,
                                 LandmarkFetchRequest* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(r.ReadU32(&out->topic));
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&n));
  if (n == 0 || n > limits.max_list) {
    return util::Status::InvalidArgument(
        "landmark fetch count must be in [1, " +
        std::to_string(limits.max_list) + "], got " + std::to_string(n));
  }
  if (n > r.remaining() / 4) {
    return util::Status::InvalidArgument(
        "landmark fetch count exceeds remaining payload bytes");
  }
  out->landmarks.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MBR_RETURN_IF_ERROR(r.ReadU32(&out->landmarks[i]));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeLandmarkVectors(const LandmarkVectorsReply& reply) {
  PayloadWriter w;
  w.PutU64(reply.graph_epoch);
  w.PutU32(static_cast<uint32_t>(reply.lists.size()));
  for (const LandmarkList& list : reply.lists) PutLandmarkList(list, &w);
  return w.Take();
}

util::Status DecodeLandmarkVectors(std::span<const uint8_t> payload,
                                   const WireLimits& limits,
                                   LandmarkVectorsReply* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->graph_epoch));
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&n));
  if (n > limits.max_list) {
    return util::Status::InvalidArgument(
        "landmark vectors count " + std::to_string(n) + " exceeds bound " +
        std::to_string(limits.max_list));
  }
  // Each list costs at least its 8-byte id+length prefix.
  if (n > r.remaining() / 8) {
    return util::Status::InvalidArgument(
        "landmark vectors count exceeds remaining payload bytes");
  }
  out->lists.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MBR_RETURN_IF_ERROR(ReadLandmarkList(&r, limits, &out->lists[i]));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeMutation(
    MessageKind kind, const std::vector<MutationRecord>& records) {
  const bool has_labels = kind != MessageKind::kUnfollow;
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const MutationRecord& rec : records) {
    w.PutU32(rec.src);
    w.PutU32(rec.dst);
    if (has_labels) w.PutU64(rec.labels);
  }
  return w.Take();
}

util::Status DecodeMutation(std::span<const uint8_t> payload,
                            const WireLimits& limits, MessageKind kind,
                            std::vector<MutationRecord>* out) {
  if (!IsMutationKind(kind)) {
    return util::Status::InvalidArgument("not a mutation kind");
  }
  const bool has_labels = kind != MessageKind::kUnfollow;
  const size_t rec_bytes = has_labels ? 16 : 8;
  PayloadReader r(payload);
  uint32_t n = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&n));
  if (n == 0 || n > limits.max_mutations) {
    return util::Status::InvalidArgument(
        "mutation count must be in [1, " +
        std::to_string(limits.max_mutations) + "], got " + std::to_string(n));
  }
  if (n > r.remaining() / rec_bytes) {
    return util::Status::InvalidArgument(
        "mutation count exceeds remaining payload bytes");
  }
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MutationRecord& rec = (*out)[i];
    MBR_RETURN_IF_ERROR(r.ReadU32(&rec.src));
    MBR_RETURN_IF_ERROR(r.ReadU32(&rec.dst));
    rec.labels = 0;
    if (has_labels) MBR_RETURN_IF_ERROR(r.ReadU64(&rec.labels));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeMutateAck(const MutateAck& ack) {
  PayloadWriter w;
  w.PutU32(ack.applied);
  w.PutU32(ack.rejected);
  w.PutU64(ack.graph_epoch);
  return w.Take();
}

util::Status DecodeMutateAck(std::span<const uint8_t> payload, MutateAck* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(r.ReadU32(&out->applied));
  MBR_RETURN_IF_ERROR(r.ReadU32(&out->rejected));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->graph_epoch));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeStats(const service::StatsSnapshot& s) {
  PayloadWriter w;
  w.PutU64(s.queries);
  w.PutU64(s.batches);
  w.PutU64(s.cache_hits);
  w.PutU64(s.cache_misses);
  w.PutU64(s.invalidations);
  w.PutU64(s.deadline_exceeded);
  w.PutU64(s.params_epoch);
  w.PutU64(s.shed_overload);
  w.PutU64(s.shed_deadline);
  w.PutU64(s.connections_accepted);
  w.PutU64(s.connections_open);
  w.PutDouble(s.p50_us);
  w.PutDouble(s.p90_us);
  w.PutDouble(s.p99_us);
  w.PutU32(s.shards_total);
  w.PutU32(s.shards_up);
  w.PutU64(s.tier_exact);
  w.PutU64(s.tier_approx);
  w.PutU64(s.tier_stale);
  w.PutU64(s.degraded);
  return w.Take();
}

util::Status DecodeStats(std::span<const uint8_t> payload,
                         service::StatsSnapshot* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->queries));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->batches));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->cache_hits));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->cache_misses));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->invalidations));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->deadline_exceeded));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->params_epoch));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->shed_overload));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->shed_deadline));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->connections_accepted));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->connections_open));
  MBR_RETURN_IF_ERROR(r.ReadDouble(&out->p50_us));
  MBR_RETURN_IF_ERROR(r.ReadDouble(&out->p90_us));
  MBR_RETURN_IF_ERROR(r.ReadDouble(&out->p99_us));
  MBR_RETURN_IF_ERROR(r.ReadU32(&out->shards_total));
  MBR_RETURN_IF_ERROR(r.ReadU32(&out->shards_up));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->tier_exact));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->tier_approx));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->tier_stale));
  MBR_RETURN_IF_ERROR(r.ReadU64(&out->degraded));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeMetricsResult(const std::string& text) {
  PayloadWriter w;
  w.PutString(text);
  return w.Take();
}

util::Status DecodeMetricsResult(std::span<const uint8_t> payload,
                                 const WireLimits& limits, std::string* out) {
  PayloadReader r(payload);
  MBR_RETURN_IF_ERROR(r.ReadString(out, limits.max_payload_bytes));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeError(const ErrorReply& err) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(err.code));
  w.PutString(err.message);
  return w.Take();
}

util::Status DecodeError(std::span<const uint8_t> payload,
                         const WireLimits& limits, ErrorReply* out) {
  PayloadReader r(payload);
  uint32_t code = 0;
  MBR_RETURN_IF_ERROR(r.ReadU32(&code));
  if (code < static_cast<uint32_t>(WireError::kInvalidArgument) ||
      code > static_cast<uint32_t>(WireError::kInternal)) {
    out->code = WireError::kInternal;
  } else {
    out->code = static_cast<WireError>(code);
  }
  MBR_RETURN_IF_ERROR(r.ReadString(&out->message, limits.max_error_msg));
  return r.ExpectEnd();
}

util::Status ErrorReplyToStatus(const ErrorReply& err) {
  std::string msg =
      std::string(WireErrorName(err.code)) + " from server: " + err.message;
  switch (err.code) {
    case WireError::kInvalidArgument:
    case WireError::kBadFrame:
    case WireError::kUnsupportedVersion:
    case WireError::kUnknownKind:
      return util::Status::InvalidArgument(std::move(msg));
    case WireError::kDeadlineExceeded:
      return util::Status::DeadlineExceeded(std::move(msg));
    case WireError::kShuttingDown:
      return util::Status::Unavailable(std::move(msg));
    case WireError::kInternal:
      return util::Status::Internal(std::move(msg));
  }
  return util::Status::Internal(std::move(msg));
}

}  // namespace mbr::net
