#ifndef MBR_NET_CLIENT_H_
#define MBR_NET_CLIENT_H_

// Blocking client for the mbr wire protocol (net/protocol.h).
//
// One Client owns one TCP connection and runs one request/reply round trip
// at a time (it is not thread-safe; use one Client per thread). Both the
// connect and each request carry explicit timeouts, enforced with poll() so
// a dead or stalled server surfaces as DEADLINE_EXCEEDED rather than a
// hang. Typed wrappers decode the reply payloads with the same bounded
// readers and the same net::kWireLimits the server uses; an ERROR reply
// maps onto util::Status via ErrorReplyToStatus, and an OVERLOADED shed
// maps to StatusCode::kUnavailable, the code of a refused connect, so a
// caller treats a shed request and a down server alike.

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "service/serving_stats.h"
#include "util/status.h"

namespace mbr::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t connect_timeout_ms = 2000;
  uint32_t request_timeout_ms = 10000;
};

class Client {
 public:
  // Establishes the TCP connection in one attempt, bounded by
  // connect_timeout_ms: kUnavailable when the connection is refused or
  // reset, kInvalidArgument for an unparsable host, DEADLINE_EXCEEDED on
  // timeout.
  static util::Result<Client> Connect(const ClientConfig& config);

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // The ranked top-n for (user, topic); empty list is a valid answer.
  util::Result<RankedList> Recommend(uint32_t user, uint32_t topic,
                                     uint32_t top_n);
  // Full request form: deadline_ms and exclude travel on the wire.
  util::Result<RankedList> Recommend(const RecommendRequest& req);
  // Like Recommend, but also surfaces the graph epoch the ranking was
  // computed under, the tier that served it and the coordinator trailer.
  // A nonzero `timeout_ms` bounds this round trip in place of
  // request_timeout_ms (the router's per-call shard budget).
  util::Result<ResultReply> RecommendEx(const RecommendRequest& req,
                                        uint32_t timeout_ms = 0);
  // Order-preserving batched variant (one RECOMMEND_BATCH frame).
  util::Result<std::vector<RankedList>> RecommendBatch(
      const std::vector<RecommendRequest>& queries);
  // Epoch-carrying batched variant; `timeout_ms` as for RecommendEx.
  util::Result<std::vector<ResultReply>> RecommendBatchEx(
      const std::vector<RecommendRequest>& queries, uint32_t timeout_ms = 0);
  // One mutation batch (kind selects FOLLOW/UNFOLLOW/RELABEL).
  // The ack counts applied vs rejected records and carries the graph epoch
  // after the batch.
  util::Result<MutateAck> Mutate(MessageKind kind,
                                 const std::vector<MutationRecord>& records);
  util::Result<MutateAck> Follow(const std::vector<MutationRecord>& records);
  util::Result<MutateAck> Unfollow(
      const std::vector<MutationRecord>& records);
  util::Result<MutateAck> Relabel(const std::vector<MutationRecord>& records);
  // The decomposed exploration records for req.user plus the inline
  // stored lists of the landmarks homed on the answering shard. Deleted
  // with the shard op in the next benchmark change.
  util::Result<PartialReply> RecommendPartial(const RecommendRequest& req);
  // Stored lists of the given landmarks for one topic. The answering
  // shard returns lists only for landmarks it homes. Deleted with the
  // shard op in the next benchmark change.
  util::Result<LandmarkVectorsReply> FetchLandmarks(
      uint32_t topic, const std::vector<uint32_t>& landmarks);
  util::Result<service::StatsSnapshot> Stats();
  // Prometheus text exposition of the server's registry.
  util::Result<std::string> Metrics();
  util::Status Ping();
  // Asks the server to drain and waits for the acknowledgement.
  util::Status Shutdown();

 private:
  struct Reply {
    FrameHeader header;
    std::vector<uint8_t> payload;
  };

  Client(int fd, const ClientConfig& config) : fd_(fd), config_(config) {}

  // One request/reply exchange, bounded by `timeout_ms`, or by
  // request_timeout_ms when it is 0.
  util::Result<Reply> RoundTrip(MessageKind kind,
                                std::span<const uint8_t> payload,
                                uint32_t timeout_ms = 0);

  int fd_ = -1;
  ClientConfig config_;
  uint64_t next_request_id_ = 1;
};

}  // namespace mbr::net

#endif  // MBR_NET_CLIENT_H_
