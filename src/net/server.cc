#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/prometheus.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mbr::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

service::Query ToQuery(
    const RecommendRequest& r,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  service::Query q;
  q.user = r.user;
  q.topic = static_cast<topics::TopicId>(r.topic);
  q.top_n = r.top_n;
  q.exclude.assign(r.exclude.begin(), r.exclude.end());
  q.deadline = deadline;
  return q;
}

}  // namespace

Reply MakeErrorReply(WireError code, const std::string& message) {
  return {MessageKind::kError, EncodeError({code, message})};
}

Reply MakeErrorReply(const util::Status& status) {
  const util::StatusCode code = status.code();
  return MakeErrorReply(code == util::StatusCode::kDeadlineExceeded
                            ? WireError::kDeadlineExceeded
                        : code == util::StatusCode::kInvalidArgument
                            ? WireError::kInvalidArgument
                            : WireError::kInternal,
                        status.message());
}

Reply MakeResultReply(MessageKind request, std::vector<ResultReply> results) {
  CoordTrailer coord = results.front().coord;
  for (const ResultReply& r : results) {
    if (r.coord.partial != 0) coord.partial = 1;
    coord.shards_answered =
        std::min(coord.shards_answered, r.coord.shards_answered);
  }
  if (request == MessageKind::kRecommend) {
    const ResultReply& r = results.front();
    return {MessageKind::kResult, EncodeResult(r.entries, r.graph_epoch,
                                               kProtocolVersion, coord,
                                               r.served_tier)};
  }
  std::vector<RankedList> lists;
  std::vector<uint64_t> epochs;
  std::vector<uint8_t> tiers;
  lists.reserve(results.size());
  epochs.reserve(results.size());
  tiers.reserve(results.size());
  for (ResultReply& r : results) {
    epochs.push_back(r.graph_epoch);
    tiers.push_back(r.served_tier);
    lists.push_back(std::move(r.entries));
  }
  return {MessageKind::kResultBatch,
          EncodeResultBatch(lists, epochs, coord, tiers)};
}

// ---------------------------------------------------------------------------
// The engine handler: QueryEngine reads, plus the mutation applier and the
// shard ops when ServerConfig names them.

class Server::EngineHandler final : public Handler {
 public:
  EngineHandler(service::QueryEngine& engine, const Server& server)
      : engine_(engine), server_(server) {}

  uint32_t num_nodes() const override { return engine_.num_nodes(); }
  uint32_t num_topics() const override { return engine_.num_topics(); }

  bool Inline(const Request& req) const override {
    switch (req.kind) {
      case MessageKind::kStats:
      case MessageKind::kLandmarkFetch:
        // A snapshot, and copies of stored lists: shard serving is
        // read-only, so the restricted index and the epoch are stable.
        return true;
      case MessageKind::kRecommendPartial:
        return !Owns(req.queries.front().user);  // rejected by Partial()
      case MessageKind::kRecommend:
      case MessageKind::kRecommendBatch:
        return false;
      default:
        return config().applier == nullptr;  // rejected by Mutate()
    }
  }

  Reply Handle(const Request& req) override {
    switch (req.kind) {
      case MessageKind::kStats:
        return {MessageKind::kStatsResult, EncodeStats(server_.StatsNow())};
      case MessageKind::kLandmarkFetch:
        return Fetch(req);
      case MessageKind::kRecommendPartial:
        return Partial(req);
      case MessageKind::kRecommend:
      case MessageKind::kRecommendBatch:
        return Recommend(req);
      default:
        return Mutate(req);
    }
  }

 private:
  const ServerConfig& config() const { return server_.config_; }
  bool sharded() const {
    return config().shard_owned != nullptr && config().shard_index != nullptr;
  }
  bool Owns(uint32_t node) const {
    return sharded() && (*config().shard_owned)[node];
  }

  LandmarkList StoredList(uint32_t landmark, uint32_t topic) const {
    LandmarkList list;
    list.landmark = landmark;
    const std::vector<landmark::StoredRec>& stored =
        config().shard_index->Recommendations(
            landmark, static_cast<topics::TopicId>(topic));
    list.entries.reserve(stored.size());
    for (const landmark::StoredRec& rec : stored) {
      list.entries.push_back({rec.node, rec.sigma, rec.topo_beta});
    }
    return list;
  }

  Reply Recommend(const Request& req) {
    std::vector<service::Query> queries;
    queries.reserve(req.queries.size());
    for (const RecommendRequest& r : req.queries) {
      queries.push_back(ToQuery(r, req.deadline));
    }
    std::vector<util::Result<service::Response>> results =
        engine_.RecommendMany(queries);
    // RESULT/RESULT_BATCH have no per-item error channel; the whole
    // request shares one deadline, so the first failure speaks for the
    // batch.
    std::vector<ResultReply> replies(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) return MakeErrorReply(results[i].status());
      service::Response& resp = results[i].value();
      replies[i].entries = std::move(resp.ranking.entries);
      replies[i].graph_epoch = resp.meta.graph_epoch;
      replies[i].served_tier = static_cast<uint8_t>(resp.meta.served_tier);
    }
    return MakeResultReply(req.kind, std::move(replies));
  }

  // The batch was fully decoded before admission, so a malformed frame
  // can never reach the applier or bump the graph epoch.
  Reply Mutate(const Request& req) {
    if (config().applier == nullptr) {
      return MakeErrorReply(WireError::kInvalidArgument,
                            "server is read-only (mutations disabled)");
    }
    const service::MutationOp op =
        req.kind == MessageKind::kFollow     ? service::MutationOp::kFollow
        : req.kind == MessageKind::kUnfollow ? service::MutationOp::kUnfollow
                                             : service::MutationOp::kRelabel;
    std::vector<service::Mutation> batch;
    batch.reserve(req.mutations.size());
    for (const MutationRecord& rec : req.mutations) {
      service::Mutation m;
      m.op = op;
      m.src = rec.src;
      m.dst = rec.dst;
      m.labels = topics::TopicSet(rec.labels);
      batch.push_back(m);
    }
    const service::MutationOutcome outcome = config().applier->Apply(batch);
    MutateAck ack;
    ack.applied = outcome.applied;
    ack.rejected = outcome.rejected;
    ack.graph_epoch = outcome.graph_epoch;
    return {MessageKind::kMutateAck, EncodeMutateAck(ack)};
  }

  Reply Partial(const Request& req) {
    if (!sharded()) {
      return MakeErrorReply(
          WireError::kInvalidArgument,
          "RECOMMEND_PARTIAL requires a shard-configured server");
    }
    // A partial exploration only makes sense on the user's home shard —
    // the halo guarantees byte-identity for owned users and nothing else.
    const RecommendRequest& r = req.queries.front();
    if (!Owns(r.user)) {
      return MakeErrorReply(WireError::kInvalidArgument,
                            "user " + std::to_string(r.user) +
                                " is not homed on shard " +
                                std::to_string(config().shard));
    }
    util::Result<service::QueryEngine::PartialExploration> partial =
        engine_.ExplorePartial(ToQuery(r, req.deadline));
    if (!partial.ok()) return MakeErrorReply(partial.status());
    PartialReply reply;
    reply.graph_epoch = partial->graph_epoch;
    reply.records.reserve(partial->records.size());
    for (const landmark::DecomposedRecord& dr : partial->records) {
      PartialRecord pr;
      pr.node = dr.node;
      pr.sigma = dr.sigma;
      if (dr.is_landmark) {
        pr.flags |= kPartialFlagLandmark;
        pr.topo_alphabeta = dr.topo_alphabeta;
        if (Owns(dr.node)) {
          // Locally-homed landmark: ship its stored list inline so the
          // router's common case needs no second round trip.
          pr.flags |= kPartialFlagInline;
          reply.lists.push_back(StoredList(dr.node, r.topic));
        }
      }
      reply.records.push_back(pr);
    }
    if (reply.records.size() > config().limits.max_partial) {
      return MakeErrorReply(
          WireError::kInvalidArgument,
          "exploration reached " + std::to_string(reply.records.size()) +
              " nodes, over the " +
              std::to_string(config().limits.max_partial) +
              "-record partial cap");
    }
    std::vector<uint8_t> payload = EncodePartialReply(reply);
    if (payload.size() > config().limits.max_payload_bytes) {
      return MakeErrorReply(
          WireError::kInvalidArgument,
          "partial reply would exceed the frame payload cap");
    }
    return {MessageKind::kPartialResult, std::move(payload)};
  }

  Reply Fetch(const Request& req) const {
    if (!sharded()) {
      return MakeErrorReply(
          WireError::kInvalidArgument,
          "LANDMARK_FETCH requires a shard-configured server");
    }
    if (req.fetch.topic >= engine_.num_topics()) {
      return MakeErrorReply(
          WireError::kInvalidArgument,
          "topic " + std::to_string(req.fetch.topic) + " out of range");
    }
    LandmarkVectorsReply vectors;
    vectors.graph_epoch = engine_.params_epoch();
    for (uint32_t lm : req.fetch.landmarks) {
      if (lm >= config().shard_owned->size() ||
          !config().shard_index->IsLandmark(lm)) {
        return MakeErrorReply(
            WireError::kInvalidArgument,
            "node " + std::to_string(lm) + " is not a landmark");
      }
      // Landmarks homed elsewhere are silently skipped: the reply names
      // each list, so the router sees exactly which it got.
      if (Owns(lm)) vectors.lists.push_back(StoredList(lm, req.fetch.topic));
    }
    std::vector<uint8_t> payload = EncodeLandmarkVectors(vectors);
    if (payload.size() > config().limits.max_payload_bytes) {
      return MakeErrorReply(
          WireError::kInvalidArgument,
          "landmark vectors reply would exceed the frame cap");
    }
    return {MessageKind::kLandmarkVectors, std::move(payload)};
  }

  service::QueryEngine& engine_;
  const Server& server_;
};

// ---------------------------------------------------------------------------
// Lifecycle.

Server::Server(service::QueryEngine& engine, const ServerConfig& config)
    : engine_(&engine),
      owned_handler_(std::make_unique<EngineHandler>(engine, *this)),
      handler_(owned_handler_.get()),
      config_(config) {
  if (config_.registry == nullptr) config_.registry = &engine.registry();
  Init();
}

Server::Server(Handler& handler, const ServerConfig& config)
    : handler_(&handler), config_(config) {
  MBR_CHECK(config_.registry != nullptr);
  Init();
}

void Server::Init() {
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  if (config_.dispatch_threads == 0) config_.dispatch_threads = 1;
  obs::Registry& r = *config_.registry;
  metrics_.accepted = r.GetCounter("mbr_net_connections_accepted_total",
                                   "Connections accepted.");
  metrics_.refused = r.GetCounter(
      "mbr_net_connections_refused_total",
      "Connections closed at accept (cap reached or draining).");
  metrics_.closed = r.GetCounter("mbr_net_connections_closed_total",
                                 "Connections fully closed.");
  metrics_.requests =
      r.GetCounter("mbr_net_requests_total", "Work requests admitted.");
  metrics_.shed_overload = r.GetCounter("mbr_net_shed_overload_total",
                                        "Requests answered OVERLOADED.");
  metrics_.shed_deadline = r.GetCounter(
      "mbr_net_shed_deadline_total",
      "Requests whose deadline expired before a dispatcher picked them up.");
  metrics_.protocol_errors = r.GetCounter(
      "mbr_net_protocol_errors_total", "Malformed frames / bad payloads.");
  metrics_.bytes_read = r.GetCounter("mbr_net_bytes_read_total",
                                     "Payload bytes read from peers.");
  metrics_.bytes_written = r.GetCounter("mbr_net_bytes_written_total",
                                        "Reply bytes written to peers.");
  auto latency = [&r](const char* op) {
    return r.GetHistogram(
        "mbr_net_request_latency_us",
        "Dispatcher latency per request in microseconds, by op.",
        {{"op", op}});
  };
  metrics_.recommend_latency_us = latency("recommend");
  metrics_.batch_latency_us = latency("recommend_batch");
  metrics_.mutate_latency_us = latency("mutate");
  metrics_.partial_latency_us = latency("recommend_partial");
}

Server::~Server() {
  if (started_) {
    RequestStop();
    Wait();
  }
  for (int fd : {listen_fd_, epoll_fd_, stop_event_fd_, completion_event_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

util::Status Server::Start() {
  if (started_) return util::Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return util::Status::IoError(Errno("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad host address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return util::Status::IoError(Errno("bind"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return util::Status::IoError(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) != 0) {
    return util::Status::IoError(Errno("listen"));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  completion_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || stop_event_fd_ < 0 || completion_event_fd_ < 0) {
    return util::Status::IoError(Errno("epoll_create1/eventfd"));
  }
  for (int fd : {listen_fd_, stop_event_fd_, completion_event_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return util::Status::IoError(Errno("epoll_ctl ADD"));
    }
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  for (uint32_t i = 0; i < config_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  return util::Status::Ok();
}

void Server::RequestStop() {
  if (stop_event_fd_ < 0) return;
  uint64_t v = 1;
  // write(2) is async-signal-safe; ignore the (impossible for eventfd)
  // short-write result.
  [[maybe_unused]] ssize_t n = ::write(stop_event_fd_, &v, sizeof(v));
}

void Server::Wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (event_thread_.joinable()) event_thread_.join();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

service::StatsSnapshot Server::StatsNow() const {
  service::StatsSnapshot s;
  if (engine_ != nullptr) s = service::MakeStatsSnapshot(engine_->Stats());
  // A leaf server is its own one-shard "deployment" (a router answers
  // STATS with its shard rollup instead).
  s.shards_total = 1;
  s.shards_up = 1;
  s.shed_overload = metrics_.shed_overload->Value();
  s.shed_deadline = metrics_.shed_deadline->Value();
  s.connections_accepted = metrics_.accepted->Value();
  const uint64_t acc = s.connections_accepted;
  const uint64_t closed = metrics_.closed->Value();
  s.connections_open = acc >= closed ? acc - closed : 0;
  return s;
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.accepted = metrics_.accepted->Value();
  c.refused = metrics_.refused->Value();
  c.closed = metrics_.closed->Value();
  c.requests = metrics_.requests->Value();
  c.shed_overload = metrics_.shed_overload->Value();
  c.shed_deadline = metrics_.shed_deadline->Value();
  c.protocol_errors = metrics_.protocol_errors->Value();
  return c;
}

// ---------------------------------------------------------------------------
// Event loop.

void Server::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!loop_done_) {
    // Short timeout while draining so the drain-complete / grace checks run
    // even with no socket activity.
    const int timeout_ms = draining_ ? 20 : 500;
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd broken: unrecoverable
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        HandleAccept();
      } else if (fd == stop_event_fd_) {
        uint64_t v;
        while (::read(stop_event_fd_, &v, sizeof(v)) > 0) {
        }
        BeginDrain();
      } else if (fd == completion_event_fd_) {
        uint64_t v;
        while (::read(completion_event_fd_, &v, sizeof(v)) > 0) {
        }
        ProcessCompletions();
      } else {
        HandleConnectionEvent(fd, events[i].events);
      }
    }
    // Completions may have been signalled while we were busy in this batch.
    ProcessCompletions();
    if (draining_) {
      const bool grace_expired =
          Clock::now() >=
          drain_start_ + std::chrono::milliseconds(config_.drain_grace_ms);
      if (DrainComplete() || grace_expired) FinishShutdown();
    }
  }
  running_.store(false, std::memory_order_release);
}

void Server::HandleAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: nothing to accept
    if (draining_ || conns_.size() >= config_.max_connections) {
      metrics_.refused->Increment();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    metrics_.accepted->Increment();
    conns_[fd] =
        std::make_unique<Connection>(fd, next_gen_++, config_.limits);
    read_shutdown_[fd] = false;
  }
}

void Server::HandleConnectionEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // already closed within this batch
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(fd);
    return;
  }
  if (events & EPOLLOUT) {
    FlushWrites(conn);
    if (conns_.find(fd) == conns_.end()) return;  // closed by flush
  }
  if (!(events & EPOLLIN)) return;

  uint8_t buf[65536];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      metrics_.bytes_read->Increment(static_cast<uint64_t>(n));
      std::vector<Connection::Frame> frames;
      util::Status st = conn->Ingest(buf, static_cast<size_t>(n), &frames);
      if (!st.ok()) {
        // Framing is broken: the stream can't be re-aligned, so the reply
        // contract is "clean close".
        metrics_.protocol_errors->Increment();
        CloseConnection(fd);
        return;
      }
      for (const Connection::Frame& f : frames) {
        HandleFrame(conn, f);
        if (conns_.find(fd) == conns_.end()) return;  // closed mid-batch
      }
    } else if (n == 0) {
      // Peer half-closed. Finish what it is owed (queued replies and
      // in-flight requests), then close.
      read_shutdown_[fd] = true;
      conn->set_close_after_flush();
      if (!conn->has_pending_write() && conn->inflight() == 0) {
        CloseConnection(fd);
      } else {
        UpdateEpollInterest(conn);
      }
      return;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(fd);
      return;
    }
  }
  FlushWrites(conn);
}

bool Server::QueueError(Connection* conn, uint64_t request_id,
                        WireError code, const std::string& message) {
  metrics_.protocol_errors->Increment();
  std::vector<uint8_t> payload = EncodeError({code, message});
  if (!conn->QueueReply(MessageKind::kError, request_id, payload)) {
    CloseConnection(conn->fd());
    return false;
  }
  return true;
}

void Server::QueueReply(Connection* conn, const FrameHeader& h,
                        MessageKind kind, std::span<const uint8_t> payload) {
  if (!conn->QueueReply(kind, h.request_id, payload)) {
    CloseConnection(conn->fd());
  }
}

void Server::HandleFrame(Connection* conn, const Connection::Frame& frame) {
  const FrameHeader& h = frame.header;
  // The version is outside the CRC: a frame stamped with any other one is
  // refused, never parsed under a layout it was not written in.
  if (h.version != kProtocolVersion) {
    if (QueueError(conn, h.request_id, WireError::kUnsupportedVersion,
                   "server speaks protocol v" +
                       std::to_string(kProtocolVersion) + ", client sent v" +
                       std::to_string(h.version))) {
      conn->set_close_after_flush();
      FlushWrites(conn);
    }
    return;
  }
  if (util::Status st = VerifyPayloadCrc(h, frame.payload); !st.ok()) {
    QueueError(conn, h.request_id, WireError::kBadFrame, st.message());
    return;
  }

  switch (h.kind) {
    case MessageKind::kPing:
      QueueReply(conn, h, MessageKind::kPong, {});
      return;
    case MessageKind::kMetrics: {
      // Render the whole registry (handler + net series) as Prometheus
      // text, inline on the event loop — exposition is a rare,
      // operator-driven request.
      std::string text = obs::RenderPrometheus(*config_.registry);
      if (text.size() + 4 > config_.limits.max_payload_bytes) {
        text.resize(config_.limits.max_payload_bytes > 4
                        ? config_.limits.max_payload_bytes - 4
                        : 0);
        // Truncate at a line boundary so the exposition stays parseable.
        size_t nl = text.rfind('\n');
        text.resize(nl == std::string::npos ? 0 : nl + 1);
      }
      QueueReply(conn, h, MessageKind::kMetricsResult,
                 EncodeMetricsResult(text));
      return;
    }
    case MessageKind::kShutdown:
      if (!conn->QueueReply(MessageKind::kShutdownAck, h.request_id, {})) {
        CloseConnection(conn->fd());
        return;
      }
      conn->set_close_after_flush();
      FlushWrites(conn);
      BeginDrain();
      return;
    default:
      break;
  }

  Request req;
  if (!DecodeRequest(conn, frame, &req)) return;
  if (handler_->Inline(req)) {
    Reply reply = handler_->Handle(req);
    if (reply.kind == MessageKind::kError) {
      metrics_.protocol_errors->Increment();
    }
    QueueReply(conn, h, reply.kind, reply.payload);
    return;
  }
  if (draining_) {
    QueueError(conn, h.request_id, WireError::kShuttingDown,
               "server is draining");
    return;
  }
  // Admission control: bounded in-flight, explicit shed beyond it.
  if (inflight_.load(std::memory_order_relaxed) >= config_.max_inflight) {
    metrics_.shed_overload->Increment();
    QueueReply(conn, h, MessageKind::kOverloaded, {});
    return;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  metrics_.requests->Increment();
  conn->add_inflight();
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_queue_.push_back({conn->fd(), conn->gen(), std::move(req)});
  }
  dispatch_cv_.notify_one();
}

bool Server::DecodeRequest(Connection* conn, const Connection::Frame& frame,
                           Request* req) {
  const FrameHeader& h = frame.header;
  req->request_id = h.request_id;
  req->kind = h.kind;
  util::Status st;
  switch (h.kind) {
    case MessageKind::kStats:
      return true;
    case MessageKind::kFollow:
    case MessageKind::kUnfollow:
    case MessageKind::kRelabel:
      st = DecodeMutation(frame.payload, config_.limits, h.kind,
                          &req->mutations);
      break;
    case MessageKind::kLandmarkFetch:
      st = DecodeLandmarkFetch(frame.payload, config_.limits, &req->fetch);
      break;
    case MessageKind::kRecommend:
    case MessageKind::kRecommendPartial:
      st = DecodeRecommend(frame.payload, config_.limits, kProtocolVersion,
                           &req->queries.emplace_back());
      break;
    case MessageKind::kRecommendBatch:
      st = DecodeRecommendBatch(frame.payload, config_.limits,
                                &req->queries);
      break;
    default:
      QueueError(conn, h.request_id, WireError::kUnknownKind,
                 "unhandled message kind " +
                     std::to_string(static_cast<uint16_t>(h.kind)));
      return false;
  }
  if (!st.ok()) {
    QueueError(conn, h.request_id, WireError::kBadFrame, st.message());
    return false;
  }

  // Validate against the handler's bounds before admission: an engine
  // treats out-of-range queries as hard precondition violations, the wire
  // layer must make them soft errors. A reply the client's own frame cap
  // would reject must never be produced, so the worst-case result payload
  // is bounded up front: a list count, one coordinator trailer per frame,
  // and per list its epoch, tier byte, length and top_n entries. A PARTIAL
  // reply's size depends on the exploration, not top_n — it is bounded
  // after execution instead.
  const uint32_t num_nodes = handler_->num_nodes();
  const uint32_t num_topics = handler_->num_topics();
  size_t reply_bytes = 4 + kCoordTrailerBytes;
  // The effective deadline is the tighter of the server-wide bound and the
  // client's per-request deadline_ms (0 = none either way).
  uint32_t deadline_ms = config_.request_deadline_ms;
  for (const RecommendRequest& r : req->queries) {
    if (r.user >= num_nodes || r.topic >= num_topics) {
      QueueError(conn, h.request_id, WireError::kInvalidArgument,
                 "query out of range: user " + std::to_string(r.user) +
                     " (nodes " + std::to_string(num_nodes) + "), topic " +
                     std::to_string(r.topic) + " (topics " +
                     std::to_string(num_topics) + ")");
      return false;
    }
    reply_bytes +=
        kResultListBytes + static_cast<size_t>(r.top_n) * kResultEntryBytes;
    if (r.deadline_ms > 0 &&
        (deadline_ms == 0 || r.deadline_ms < deadline_ms)) {
      deadline_ms = r.deadline_ms;
    }
  }
  if (h.kind != MessageKind::kRecommendPartial &&
      reply_bytes > config_.limits.max_payload_bytes) {
    QueueError(conn, h.request_id, WireError::kInvalidArgument,
               "reply would exceed the " +
                   std::to_string(config_.limits.max_payload_bytes) +
                   "-byte frame payload cap");
    return false;
  }
  if (deadline_ms > 0) {
    req->deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return true;
}

void Server::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_fd);
    if (it == conns_.end() || it->second->gen() != c.conn_gen) {
      continue;  // connection died while the request was in flight
    }
    Connection* conn = it->second.get();
    conn->sub_inflight();
    if (!conn->QueueEncoded(c.frame)) {
      CloseConnection(c.conn_fd);
      continue;
    }
    FlushWrites(conn);
  }
}

void Server::FlushWrites(Connection* conn) {
  const int fd = conn->fd();
  while (conn->has_pending_write()) {
    std::span<const uint8_t> out = conn->pending_write();
    ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      metrics_.bytes_written->Increment(static_cast<uint64_t>(n));
      conn->ConsumeWritten(static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      CloseConnection(fd);
      return;
    }
  }
  if (conn->close_after_flush() && !conn->has_pending_write() &&
      conn->inflight() == 0) {
    CloseConnection(fd);
    return;
  }
  UpdateEpollInterest(conn);
}

void Server::UpdateEpollInterest(Connection* conn) {
  epoll_event ev{};
  ev.data.fd = conn->fd();
  ev.events = 0;
  if (!read_shutdown_[conn->fd()]) ev.events |= EPOLLIN;
  if (conn->has_pending_write()) ev.events |= EPOLLOUT;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
}

void Server::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  read_shutdown_.erase(fd);
  metrics_.closed->Increment();
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_start_ = Clock::now();
  // Closing the listen socket refuses new connections at the kernel.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool Server::DrainComplete() {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    if (!dispatch_queue_.empty()) return false;
  }
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [fd, conn] : conns_) {
    if (conn->has_pending_write()) return false;
  }
  return true;
}

void Server::FinishShutdown() {
  // Final completion sweep so a reply that raced the checks is not lost
  // for connections that can still take it.
  ProcessCompletions();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) FlushWrites(it->second.get());
    CloseConnection(fd);
  }
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_stop_ = true;
    dispatch_queue_.clear();
  }
  dispatch_cv_.notify_all();
  loop_done_ = true;
}

// ---------------------------------------------------------------------------
// Dispatchers.

void Server::DispatchLoop() {
  for (;;) {
    PendingRequest p;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] {
        return dispatch_stop_ || !dispatch_queue_.empty();
      });
      if (dispatch_queue_.empty()) return;  // stopping, queue drained
      p = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }

    const Request& req = p.req;
    Reply reply;
    if (req.deadline && Clock::now() > *req.deadline) {
      metrics_.shed_deadline->Increment();
      reply = MakeErrorReply(WireError::kDeadlineExceeded,
                             "deadline expired before execution");
    } else {
      util::WallTimer timer;
      reply = handler_->Handle(req);
      obs::Histogram* h =
          req.kind == MessageKind::kRecommend ? metrics_.recommend_latency_us
          : req.kind == MessageKind::kRecommendBatch
              ? metrics_.batch_latency_us
          : req.kind == MessageKind::kRecommendPartial
              ? metrics_.partial_latency_us
          : IsMutationKind(req.kind) ? metrics_.mutate_latency_us
                                     : nullptr;  // the router's STATS
      if (h != nullptr) {
        h->Record(static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
      }
    }
    std::vector<uint8_t> frame;
    AppendFrame(reply.kind, req.request_id, reply.payload, &frame);

    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back({p.conn_fd, p.conn_gen, std::move(frame)});
    }
    inflight_.fetch_sub(1, std::memory_order_release);
    uint64_t v = 1;
    [[maybe_unused]] ssize_t n =
        ::write(completion_event_fd_, &v, sizeof(v));
  }
}

}  // namespace mbr::net
