#ifndef MBR_NET_CONNECTION_H_
#define MBR_NET_CONNECTION_H_

// Per-connection read/write state machine for the epoll server.
//
// A Connection is owned and touched by the event-loop thread only —
// dispatcher threads never see it (they post encoded reply bytes through
// the server's completion queue, keyed by the connection's generation, and
// the event loop copies them in). That single-owner rule is what keeps the
// whole connection layer lock-free.
//
// Read side: bytes stream into `read_buf_`; Ingest() peels off complete
// frames. The buffer is capped at header + kWireLimits.max_payload_bytes,
// so a peer cannot grow server memory by streaming an unbounded frame —
// the length field is validated (ParseFrameHeader) before any payload is
// buffered.
//
// Write side: encoded reply frames append to `write_buf_`; the event loop
// flushes opportunistically and arms EPOLLOUT only while bytes remain. A
// peer that stops reading eventually overflows the write cap and is
// closed — replies are shed rather than buffered without bound.

#include <cstdint>
#include <vector>

#include "net/protocol.h"
#include "util/status.h"

namespace mbr::net {

class Connection {
 public:
  struct Frame {
    FrameHeader header;
    std::vector<uint8_t> payload;
  };

  // `gen` is the server-unique generation used to route dispatcher
  // completions back to a connection that may have died meanwhile.
  Connection(int fd, uint64_t gen) : fd_(fd), gen_(gen) {}

  int fd() const { return fd_; }
  uint64_t gen() const { return gen_; }

  // Appends freshly-read bytes and extracts every complete frame into
  // `out`. A framing-level violation (bad magic, oversized declared
  // payload) returns non-OK: the connection can no longer be trusted to
  // be frame-aligned and must be closed.
  util::Status Ingest(const uint8_t* data, size_t size,
                      std::vector<Frame>* out);

  // Frames and queues one reply. Returns false when the write buffer cap
  // is exceeded (slow consumer): the caller should close.
  bool QueueReply(MessageKind kind, uint64_t request_id,
                  std::span<const uint8_t> payload);
  bool QueueEncoded(std::span<const uint8_t> frame_bytes);

  // Bytes waiting to be written (starting at the unflushed offset).
  std::span<const uint8_t> pending_write() const {
    return {write_buf_.data() + write_off_, write_buf_.size() - write_off_};
  }
  bool has_pending_write() const { return write_off_ < write_buf_.size(); }
  // Marks `n` pending bytes as flushed, compacting once drained.
  void ConsumeWritten(size_t n);

  // After this, the event loop closes the fd once the write buffer drains
  // (used for fatal protocol errors that still deserve an ERROR reply,
  // and for SHUTDOWN acks).
  void set_close_after_flush() { close_after_flush_ = true; }
  bool close_after_flush() const { return close_after_flush_; }

  // In-flight requests the dispatcher still owes this connection.
  void add_inflight() { ++inflight_; }
  void sub_inflight() { --inflight_; }
  uint32_t inflight() const { return inflight_; }

 private:
  int fd_;
  uint64_t gen_;

  std::vector<uint8_t> read_buf_;
  std::vector<uint8_t> write_buf_;
  size_t write_off_ = 0;
  bool close_after_flush_ = false;
  uint32_t inflight_ = 0;
};

}  // namespace mbr::net

#endif  // MBR_NET_CONNECTION_H_
