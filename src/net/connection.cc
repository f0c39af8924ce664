#include "net/connection.h"

#include <cstring>

namespace mbr::net {

util::Status Connection::Ingest(const uint8_t* data, size_t size,
                                std::vector<Frame>* out) {
  read_buf_.insert(read_buf_.end(), data, data + size);

  size_t pos = 0;
  for (;;) {
    FrameHeader h;
    HeaderParse p = ParseFrameHeader(
        {read_buf_.data() + pos, read_buf_.size() - pos}, limits_, &h);
    if (p == HeaderParse::kMalformed) {
      return util::Status::InvalidArgument("malformed frame header");
    }
    if (p == HeaderParse::kNeedMore) break;
    const size_t frame_total = kFrameHeaderBytes + h.payload_len;
    if (read_buf_.size() - pos < frame_total) break;  // payload still partial
    Frame f;
    f.header = h;
    f.payload.assign(
        read_buf_.begin() + static_cast<ptrdiff_t>(pos + kFrameHeaderBytes),
        read_buf_.begin() + static_cast<ptrdiff_t>(pos + frame_total));
    out->push_back(std::move(f));
    pos += frame_total;
  }
  if (pos > 0) {
    read_buf_.erase(read_buf_.begin(),
                    read_buf_.begin() + static_cast<ptrdiff_t>(pos));
  }
  // Whatever remains is at most one partial frame, whose declared length
  // ParseFrameHeader already capped — anything bigger means the peer is
  // streaming bytes that can never frame-align.
  if (read_buf_.size() > kFrameHeaderBytes + limits_.max_payload_bytes) {
    return util::Status::InvalidArgument("read buffer cap exceeded");
  }
  return util::Status::Ok();
}

bool Connection::QueueReply(MessageKind kind, uint64_t request_id,
                            std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame;
  AppendFrame(kind, request_id, payload, &frame);
  return QueueEncoded(frame);
}

bool Connection::QueueEncoded(std::span<const uint8_t> frame_bytes) {
  // Write cap: a handful of max-size frames. Beyond that the peer is not
  // consuming replies and buffering more would be unbounded queueing.
  const size_t write_cap =
      4 * (kFrameHeaderBytes + static_cast<size_t>(limits_.max_payload_bytes));
  if ((write_buf_.size() - write_off_) + frame_bytes.size() > write_cap) {
    return false;
  }
  write_buf_.insert(write_buf_.end(), frame_bytes.begin(), frame_bytes.end());
  return true;
}

void Connection::ConsumeWritten(size_t n) {
  write_off_ += n;
  if (write_off_ == write_buf_.size()) {
    write_buf_.clear();
    write_off_ = 0;
  } else if (write_off_ > (1u << 16) && write_off_ > write_buf_.size() / 2) {
    write_buf_.erase(write_buf_.begin(),
                     write_buf_.begin() + static_cast<ptrdiff_t>(write_off_));
    write_off_ = 0;
  }
}

}  // namespace mbr::net
