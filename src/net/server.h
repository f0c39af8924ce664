#ifndef MBR_NET_SERVER_H_
#define MBR_NET_SERVER_H_

// Epoll-based non-blocking network front end. What it serves is a Handler:
// a service::QueryEngine (the Server(QueryEngine&, ...) constructor, which
// also serves the mutation applier and shard ops named in ServerConfig) or
// a coord::Router. Framing, version/CRC checks, range and reply-size
// checks, admission, deadlines, drain, PING/SHUTDOWN/METRICS and the
// mbr_net_* series live here once, for both. Every framing, decode and
// reply-size bound is net::kWireLimits, the constant the client reads too.
//
// Threading model:
//   * ONE event-loop thread owns every socket and Connection object: it
//     accepts, reads, frames, admits, and writes. No connection state is
//     ever touched from another thread. The loop never waits on a lock
//     the handler may hold for long: the range check reads lock-free
//     bounds, Inline requests are non-blocking by contract, and the one
//     handler call it makes on admitted work, Handler::AnswerNow, only
//     ever try-locks.
//   * An admitted request that AnswerNow answers (for the engine: a
//     single RECOMMEND whose list is in the result cache under the
//     current epoch) is written back by the loop itself, with no thread
//     hand-off.
//   * `dispatch_threads` dispatcher threads pop every other admitted
//     request from a bounded queue, run the handler (which may block), and
//     post the encoded reply frame to a completion queue; an eventfd wakes
//     the event loop to copy the bytes into the right connection's write
//     buffer. Completions are routed by (fd, generation), so a connection
//     that died mid-request simply drops its reply.
//
// Admission control / overload behavior: at most `max_inflight` requests
// may be queued-or-executing at once. A request arriving beyond that is
// answered immediately with an OVERLOADED frame by the event loop — the
// server sheds load explicitly instead of queueing unboundedly, and the
// shed count is visible through STATS. The drain and shed checks run
// before AnswerNow, so a cache hit is shed or refused like any request.
// Each admitted request carries a deadline (`request_deadline_ms`); if it
// expires before a dispatcher picks the request up, the client gets
// ERROR(DEADLINE_EXCEEDED) instead of a late answer (AnswerNow declines
// an expired request, so that answer too comes from a dispatcher).
//
// Graceful drain: RequestStop() (async-signal-safe; wired to SIGINT/
// SIGTERM by `mbrec serve` and `mbrec route`) or a SHUTDOWN frame stops
// accepting — the listen socket closes, so new connects are refused by the
// kernel — finishes every in-flight request, flushes replies, then closes
// all connections and returns from Wait(). Requests arriving on existing
// connections during the drain get ERROR(SHUTTING_DOWN). A
// `drain_grace_ms` backstop force-closes connections whose peers refuse
// to read their last replies.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "service/serving_stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace mbr::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = OS-assigned ephemeral port (see Server::port())
  uint32_t max_connections = 256;
  // Admission bound: requests queued-or-executing before OVERLOADED sheds.
  uint32_t max_inflight = 64;
  uint32_t dispatch_threads = 2;
  // Per-request deadline measured from admission; 0 disables.
  uint32_t request_deadline_ms = 1000;
  // Drain backstop: force-close connections this long after Stop.
  uint32_t drain_grace_ms = 5000;
  // Where the server registers its mbr_net_* series and what the METRICS
  // op renders. nullptr = the engine's registry, so one exposition covers
  // engine + network counters by default; required with any other
  // handler. Must outlive the server.
  obs::Registry* registry = nullptr;
  // The fields below configure the engine handler only.
  // Mutation ops (FOLLOW/UNFOLLOW/RELABEL) apply through this. nullptr
  // = read-only serving: well-formed mutation frames are answered with
  // ERROR(INVALID_ARGUMENT) and never touch the graph. Must outlive the
  // server.
  service::MutationApplier* applier = nullptr;
  // Shard serving (coordinator tier, DESIGN.md §6.7). `shard_owned` is
  // the node mask of the users this shard homes: when set, RECOMMEND and
  // RECOMMEND_BATCH frames naming any other user are refused inline with
  // ERROR(INVALID_ARGUMENT) "user U is not homed on shard N" — the halo
  // holds the edges of homed users' explorations only, so any other
  // answer would be silently wrong. When `shard_index` (the landmark index
  // the engine serves from) is set too, the server also answers the shard
  // ops: RECOMMEND_PARTIAL for homed users (decomposed exploration records
  // plus the inline stored lists of locally-homed landmarks) and
  // LANDMARK_FETCH for the stored lists of landmarks it homes. Both must
  // outlive the server. Shard serving is read-only (`applier` must stay
  // null), so the index and epoch are stable and the fetch path needs no
  // locking. Null = single-node serving; shard ops answer
  // ERROR(INVALID_ARGUMENT).
  const std::vector<bool>* shard_owned = nullptr;
  // Read only by the shard ops; deleted with them in the next benchmark
  // change.
  const landmark::LandmarkIndex* shard_index = nullptr;
  // Named in the "not homed on shard N" refusal.
  uint32_t shard = 0;
  // Read by nothing; perfbench sets it, so the next benchmark change
  // deletes it.
  uint32_t shards_total = 1;
};

// One request as the server hands it to a Handler: decoded, and for
// RECOMMEND kinds range-checked against the handler's universe (and, but
// for RECOMMEND_PARTIAL, bounded against the frame cap).
struct Request {
  uint64_t request_id = 0;
  MessageKind kind = MessageKind::kRecommend;
  // RECOMMEND and RECOMMEND_PARTIAL carry one query, RECOMMEND_BATCH many.
  std::vector<RecommendRequest> queries;
  std::vector<MutationRecord> mutations;  // FOLLOW / UNFOLLOW / RELABEL
  LandmarkFetchRequest fetch;             // LANDMARK_FETCH
  // The tighter of request_deadline_ms and the client's deadline_ms.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

// A handler's answer; the server frames it with the request's id.
struct Reply {
  MessageKind kind = MessageKind::kError;
  std::vector<uint8_t> payload;
};
Reply MakeErrorReply(WireError code, const std::string& message);
// A failed status as ERROR: DEADLINE_EXCEEDED, INVALID_ARGUMENT and
// UNAVAILABLE keep their code, anything else is INTERNAL.
Reply MakeErrorReply(const util::Status& status);
// The answer to a RECOMMEND (RESULT, from `results`' one entry) or a
// RECOMMEND_BATCH (RESULT_BATCH, in query order). The frame's coordinator
// trailer is partial if any query was partial and names the fewest shards
// any query heard from; replies that carry the default trailer keep it.
Reply MakeResultReply(MessageKind request, std::vector<ResultReply> results);

// What a Server serves: STATS and every work op (RECOMMEND,
// RECOMMEND_BATCH, mutations, shard ops). The server answers PING,
// METRICS and SHUTDOWN itself.
class Handler {
 public:
  Handler() = default;
  Handler(const Handler&) = delete;
  Handler& operator=(const Handler&) = delete;
  virtual ~Handler() = default;
  // The universe RECOMMEND frames are range-checked against. Called on
  // the event loop for every work frame, so they must not block.
  virtual uint32_t num_nodes() const = 0;
  virtual uint32_t num_topics() const = 0;
  // Whether `req` is answered on the event loop, outside admission and
  // drain: cheap non-blocking replies and rejections. Everything else is
  // admitted against max_inflight.
  virtual bool Inline(const Request& req) const = 0;
  // An admitted request's answer if it is ready now: called on the event
  // loop for a request that is not Inline, after the drain and shed
  // checks, it must never block. True with *reply set answers `req`
  // there, counted and timed like a dispatched request; false ("cannot
  // answer now", the default) queues it for a dispatcher. The engine
  // handler answers fresh result-cache hits here.
  virtual bool AnswerNow(const Request&, Reply*) { return false; }
  // Answers one request: on the event loop when Inline, else concurrently
  // from dispatcher threads.
  virtual Reply Handle(const Request& req) = 0;
};

// Snapshot of the server's registry-backed counters (see also
// StatsNow(), and the METRICS op for the full exposition).
struct ServerCounters {
  uint64_t accepted = 0;         // connections accepted
  uint64_t refused = 0;          // connections closed at accept (cap/drain)
  uint64_t closed = 0;           // connections fully closed
  uint64_t requests = 0;         // work requests admitted
  uint64_t shed_overload = 0;    // OVERLOADED replies
  uint64_t shed_deadline = 0;    // deadline expired before dispatch
  uint64_t protocol_errors = 0;  // malformed frames / bad payloads
};

class Server {
 public:
  // Serves `engine` (with config.applier and the config.shard_* ops);
  // `engine` must outlive the server.
  Server(service::QueryEngine& engine, const ServerConfig& config);
  // Serves `handler`, which must outlive the server; config.registry must
  // be set.
  Server(Handler& handler, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the event loop + dispatcher threads.
  util::Status Start();

  // The bound port (useful with config.port == 0). Valid after Start().
  uint16_t port() const { return port_; }

  // Initiates graceful drain. Async-signal-safe (one eventfd write), so it
  // may be called straight from a SIGINT/SIGTERM handler. Idempotent.
  void RequestStop();

  // Blocks until the drain completes and all threads are joined.
  void Wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Engine stats (when serving an engine) + server shed/connection
  // counters, merged into the shared snapshot struct — the engine's STATS
  // wire reply and the `mbrec serve` log line both come from here.
  service::StatsSnapshot StatsNow() const;

  ServerCounters counters() const;

 private:
  using Clock = std::chrono::steady_clock;
  class EngineHandler;

  struct PendingRequest {
    int conn_fd = -1;
    uint64_t conn_gen = 0;
    Request req;
  };
  struct Completion {
    int conn_fd = -1;
    uint64_t conn_gen = 0;
    std::vector<uint8_t> frame;
  };

  void Init();
  void EventLoop();
  void DispatchLoop();
  void HandleAccept();
  void HandleConnectionEvent(int fd, uint32_t events);
  void HandleFrame(Connection* conn, const Connection::Frame& frame);
  // Decodes and checks a handler-bound frame into `req`; false after
  // queueing the error reply.
  bool DecodeRequest(Connection* conn, const Connection::Frame& frame,
                     Request* req);
  // Returns false when the connection had to be closed (write overflow) —
  // `conn` is dangling in that case.
  bool QueueError(Connection* conn, uint64_t request_id, WireError code,
                  const std::string& message);
  void QueueReply(Connection* conn, const FrameHeader& h,
                  MessageKind kind, std::span<const uint8_t> payload);
  void ProcessCompletions();
  // Records an answered request's handler time in its op's latency series.
  void RecordLatency(MessageKind kind, const util::WallTimer& timer);
  void FlushWrites(Connection* conn);
  // Re-arms the connection's epoll interest, only when it changed.
  void UpdateEpollInterest(Connection* conn);
  void CloseConnection(int fd);
  void BeginDrain();
  bool DrainComplete();
  void FinishShutdown();

  // Registry-backed serving counters (mbr_net_* series). The raw-pointer
  // handles are stable for the registry's lifetime.
  struct Metrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* refused = nullptr;
    obs::Counter* closed = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* shed_overload = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Histogram* recommend_latency_us = nullptr;
    obs::Histogram* batch_latency_us = nullptr;
    obs::Histogram* mutate_latency_us = nullptr;
    obs::Histogram* partial_latency_us = nullptr;
  };

  // Set when serving an engine: StatsNow() reports its stats.
  service::QueryEngine* engine_ = nullptr;
  std::unique_ptr<Handler> owned_handler_;
  Handler* handler_ = nullptr;
  ServerConfig config_;
  Metrics metrics_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_event_fd_ = -1;
  int completion_event_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;

  std::thread event_thread_;
  std::vector<std::thread> dispatchers_;
  std::mutex join_mu_;

  // Event-loop-owned state.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  uint64_t next_gen_ = 1;
  bool draining_ = false;
  bool loop_done_ = false;
  Clock::time_point drain_start_{};

  // Dispatch queue (event loop -> dispatchers).
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::deque<PendingRequest> dispatch_queue_;
  bool dispatch_stop_ = false;

  // Completion queue (dispatchers -> event loop).
  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> running_{false};
  // Admission-control state (compared against max_inflight on the event
  // loop); the registry counters above are monotonic and can serve stats
  // but not this bound, which must read-modify-write.
  std::atomic<uint32_t> inflight_{0};
};

}  // namespace mbr::net

#endif  // MBR_NET_SERVER_H_
