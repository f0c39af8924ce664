#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace mbr::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

int RemainingMs(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

// Waits until `fd` is ready for `events` or the deadline passes.
util::Status PollFor(int fd, short events, Clock::time_point deadline,
                     const char* what) {
  for (;;) {
    pollfd p{fd, events, 0};
    int remaining = RemainingMs(deadline);
    if (remaining == 0) {
      return util::Status::DeadlineExceeded(std::string(what) + " timed out");
    }
    int r = ::poll(&p, 1, remaining);
    if (r > 0) return util::Status::Ok();
    if (r == 0) {
      return util::Status::DeadlineExceeded(std::string(what) + " timed out");
    }
    if (errno != EINTR) return util::Status::IoError(Errno("poll"));
  }
}

util::Status SendAll(int fd, std::span<const uint8_t> bytes,
                     Clock::time_point deadline) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      MBR_RETURN_IF_ERROR(PollFor(fd, POLLOUT, deadline, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return util::Status::IoError(Errno("send"));
  }
  return util::Status::Ok();
}

util::Status RecvExactly(int fd, uint8_t* out, size_t size,
                         Clock::time_point deadline) {
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::recv(fd, out + off, size - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return util::Status::Unavailable("connection closed by server");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      MBR_RETURN_IF_ERROR(PollFor(fd, POLLIN, deadline, "recv"));
      continue;
    }
    if (errno == EINTR) continue;
    return util::Status::IoError(Errno("recv"));
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<Client> Client::Connect(const ClientConfig& config) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return util::Status::IoError(Errno("socket"));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("bad host address: " + config.host);
  }

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config.connect_timeout_ms);
  int r = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (r != 0 && errno != EINPROGRESS) {
    util::Status st = util::Status::Unavailable(Errno("connect"));
    ::close(fd);
    return st;
  }
  if (r != 0) {
    util::Status st = PollFor(fd, POLLOUT, deadline, "connect");
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return util::Status::Unavailable(std::string("connect: ") +
                                       std::strerror(err));
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd, config);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      config_(std::move(other.config_)),
      next_request_id_(other.next_request_id_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    config_ = std::move(other.config_);
    next_request_id_ = other.next_request_id_;
    other.fd_ = -1;
  }
  return *this;
}

util::Result<Client::Reply> Client::RoundTrip(
    MessageKind kind, std::span<const uint8_t> payload) {
  if (fd_ < 0) return util::Status::FailedPrecondition("client moved-from");
  const uint64_t request_id = next_request_id_++;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.request_timeout_ms);

  std::vector<uint8_t> frame;
  AppendFrame(kind, request_id, payload, &frame);
  MBR_RETURN_IF_ERROR(SendAll(fd_, frame, deadline));

  uint8_t header_buf[kFrameHeaderBytes];
  MBR_RETURN_IF_ERROR(
      RecvExactly(fd_, header_buf, kFrameHeaderBytes, deadline));
  Reply reply;
  switch (ParseFrameHeader({header_buf, kFrameHeaderBytes}, kWireLimits,
                           &reply.header)) {
    case HeaderParse::kOk:
      break;
    case HeaderParse::kNeedMore:  // unreachable: we read exactly 24 bytes
    case HeaderParse::kMalformed:
      return util::Status::Internal("malformed reply frame from server");
  }
  // A reply stamped with another version would be decoded with the wrong
  // layout.
  if (reply.header.version != kProtocolVersion) {
    return util::Status::Internal(
        "server replied with protocol v" +
        std::to_string(reply.header.version) + ", client speaks v" +
        std::to_string(kProtocolVersion));
  }
  reply.payload.resize(reply.header.payload_len);
  MBR_RETURN_IF_ERROR(RecvExactly(fd_, reply.payload.data(),
                                  reply.payload.size(), deadline));
  MBR_RETURN_IF_ERROR(VerifyPayloadCrc(reply.header, reply.payload));
  if (reply.header.request_id != request_id) {
    return util::Status::Internal("reply for request " +
                                  std::to_string(reply.header.request_id) +
                                  ", expected " + std::to_string(request_id));
  }

  if (reply.header.kind == MessageKind::kError) {
    ErrorReply err;
    MBR_RETURN_IF_ERROR(DecodeError(reply.payload, kWireLimits, &err));
    return ErrorReplyToStatus(err);
  }
  if (reply.header.kind == MessageKind::kOverloaded) {
    return util::Status::Unavailable("server overloaded: request shed");
  }
  return reply;
}

util::Result<RankedList> Client::Recommend(uint32_t user, uint32_t topic,
                                           uint32_t top_n) {
  RecommendRequest req;
  req.user = user;
  req.topic = topic;
  req.top_n = top_n;
  return Recommend(req);
}

util::Result<RankedList> Client::Recommend(const RecommendRequest& req) {
  auto reply = RecommendEx(req);
  if (!reply.ok()) return reply.status();
  return std::move(reply.value().entries);
}

util::Result<ResultReply> Client::RecommendEx(const RecommendRequest& req) {
  auto reply = RoundTrip(MessageKind::kRecommend, EncodeRecommend(req));
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kResult) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  ResultReply out;
  MBR_RETURN_IF_ERROR(DecodeResult(reply->payload, kWireLimits,
                                   kProtocolVersion, &out.entries,
                                   &out.graph_epoch, &out.coord,
                                   &out.served_tier));
  return out;
}

util::Result<std::vector<RankedList>> Client::RecommendBatch(
    const std::vector<RecommendRequest>& queries) {
  auto replies = RecommendBatchEx(queries);
  if (!replies.ok()) return replies.status();
  std::vector<RankedList> lists;
  lists.reserve(replies->size());
  for (ResultReply& r : replies.value()) {
    lists.push_back(std::move(r.entries));
  }
  return lists;
}

util::Result<std::vector<ResultReply>> Client::RecommendBatchEx(
    const std::vector<RecommendRequest>& queries) {
  auto reply =
      RoundTrip(MessageKind::kRecommendBatch, EncodeRecommendBatch(queries));
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kResultBatch) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  std::vector<RankedList> lists;
  std::vector<uint64_t> epochs;
  std::vector<uint8_t> tiers;
  CoordTrailer coord;
  MBR_RETURN_IF_ERROR(DecodeResultBatch(reply->payload, kWireLimits,
                                        &lists, &epochs, &coord, &tiers));
  if (lists.size() != queries.size()) {
    return util::Status::Internal(
        "server answered " + std::to_string(lists.size()) + " lists for " +
        std::to_string(queries.size()) + " queries");
  }
  std::vector<ResultReply> out(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    out[i].entries = std::move(lists[i]);
    out[i].graph_epoch = epochs[i];
    out[i].served_tier = tiers[i];
    out[i].coord = coord;  // per-frame trailer (see EncodeResultBatch)
  }
  return out;
}

util::Result<PartialReply> Client::RecommendPartial(
    const RecommendRequest& req) {
  auto reply =
      RoundTrip(MessageKind::kRecommendPartial, EncodeRecommend(req));
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kPartialResult) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  PartialReply out;
  MBR_RETURN_IF_ERROR(
      DecodePartialReply(reply->payload, kWireLimits, &out));
  return out;
}

util::Result<LandmarkVectorsReply> Client::FetchLandmarks(
    uint32_t topic, const std::vector<uint32_t>& landmarks) {
  LandmarkFetchRequest req;
  req.topic = topic;
  req.landmarks = landmarks;
  auto reply =
      RoundTrip(MessageKind::kLandmarkFetch, EncodeLandmarkFetch(req));
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kLandmarkVectors) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  LandmarkVectorsReply out;
  MBR_RETURN_IF_ERROR(
      DecodeLandmarkVectors(reply->payload, kWireLimits, &out));
  return out;
}

util::Result<MutateAck> Client::Mutate(
    MessageKind kind, const std::vector<MutationRecord>& records) {
  if (!IsMutationKind(kind)) {
    return util::Status::InvalidArgument("not a mutation kind");
  }
  auto reply = RoundTrip(kind, EncodeMutation(kind, records));
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kMutateAck) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  MutateAck ack;
  MBR_RETURN_IF_ERROR(DecodeMutateAck(reply->payload, &ack));
  return ack;
}

util::Result<MutateAck> Client::Follow(
    const std::vector<MutationRecord>& records) {
  return Mutate(MessageKind::kFollow, records);
}

util::Result<MutateAck> Client::Unfollow(
    const std::vector<MutationRecord>& records) {
  return Mutate(MessageKind::kUnfollow, records);
}

util::Result<MutateAck> Client::Relabel(
    const std::vector<MutationRecord>& records) {
  return Mutate(MessageKind::kRelabel, records);
}

util::Result<service::StatsSnapshot> Client::Stats() {
  auto reply = RoundTrip(MessageKind::kStats, {});
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kStatsResult) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  service::StatsSnapshot s;
  MBR_RETURN_IF_ERROR(DecodeStats(reply->payload, &s));
  return s;
}

util::Result<std::string> Client::Metrics() {
  auto reply = RoundTrip(MessageKind::kMetrics, {});
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kMetricsResult) {
    return util::Status::Internal(
        std::string("unexpected reply kind ") +
        MessageKindName(reply->header.kind));
  }
  std::string text;
  MBR_RETURN_IF_ERROR(
      DecodeMetricsResult(reply->payload, kWireLimits, &text));
  return text;
}

util::Status Client::Ping() {
  auto reply = RoundTrip(MessageKind::kPing, {});
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kPong) {
    return util::Status::Internal("unexpected reply kind to PING");
  }
  return util::Status::Ok();
}

util::Status Client::Shutdown() {
  auto reply = RoundTrip(MessageKind::kShutdown, {});
  if (!reply.ok()) return reply.status();
  if (reply->header.kind != MessageKind::kShutdownAck) {
    return util::Status::Internal("unexpected reply kind to SHUTDOWN");
  }
  return util::Status::Ok();
}

}  // namespace mbr::net
