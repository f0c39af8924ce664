#include "util/serde.h"

#include <array>
#include <cstdio>

namespace mbr::util::serde {

namespace {

// Section frame layout: u32 id, u64 payload length, u32 payload CRC32.
constexpr size_t kFrameBytes = 4 + 8 + 4;
// Container header layout: u64 magic, u32 artifact kind, u32 version.
constexpr size_t kHeaderBytes = 8 + 4 + 4;

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kCrcTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---- Writer.

Writer::Writer(ArtifactKind kind, uint32_t version) {
  PutPod(kContainerMagic);
  PutPod(static_cast<uint32_t>(kind));
  PutPod(version);
}

void Writer::PutBytes(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void Writer::BeginSection(uint32_t id) {
  MBR_CHECK(frame_off_ == npos_);
  frame_off_ = buf_.size();
  PutPod(id);
  PutPod(uint64_t{0});  // payload length, patched by EndSection
  PutPod(uint32_t{0});  // payload CRC32, patched by EndSection
}

void Writer::EndSection() {
  MBR_CHECK(frame_off_ != npos_);
  const size_t payload_off = frame_off_ + kFrameBytes;
  const uint64_t len = buf_.size() - payload_off;
  const uint32_t crc = Crc32(buf_.data() + payload_off, len);
  std::memcpy(buf_.data() + frame_off_ + 4, &len, sizeof(len));
  std::memcpy(buf_.data() + frame_off_ + 12, &crc, sizeof(crc));
  frame_off_ = npos_;
}

const std::vector<uint8_t>& Writer::buffer() const {
  MBR_CHECK(frame_off_ == npos_);  // no section left open
  return buf_;
}

util::Status Writer::WriteToFile(const std::string& path) const {
  const std::vector<uint8_t>& bytes = buffer();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::IoError("cannot open for write: " + path);
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return util::Status::IoError("short write: " + path);
  return util::Status::Ok();
}

// ---- Reader.

util::Result<Reader> Reader::FromFile(const std::string& path,
                                      ArtifactKind expected_kind,
                                      size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::IoError("cannot open for read: " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return util::Status::IoError("cannot seek: " + path);
  }
  const long size = std::ftell(f);
  if (size < 0 || static_cast<uint64_t>(size) > max_bytes) {
    std::fclose(f);
    return util::Status::InvalidArgument("implausible file size: " + path);
  }
  std::rewind(f);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const bool ok = bytes.empty() ||
                  std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) return util::Status::IoError("short read: " + path);
  Reader r(std::move(bytes));
  MBR_RETURN_IF_ERROR(r.ValidateHeader(expected_kind));
  return r;
}

util::Result<Reader> Reader::FromBuffer(std::span<const uint8_t> data,
                                        ArtifactKind expected_kind) {
  Reader r(std::vector<uint8_t>(data.begin(), data.end()));
  MBR_RETURN_IF_ERROR(r.ValidateHeader(expected_kind));
  return r;
}

util::Status Reader::ValidateHeader(ArtifactKind expected_kind) {
  if (bytes_.size() < kHeaderBytes) {
    return util::Status::InvalidArgument("container shorter than its header");
  }
  uint64_t magic = 0;
  uint32_t kind = 0;
  MBR_RETURN_IF_ERROR(ReadPod(&magic));
  MBR_RETURN_IF_ERROR(ReadPod(&kind));
  MBR_RETURN_IF_ERROR(ReadPod(&version_));
  if (magic != kContainerMagic) {
    return util::Status::InvalidArgument("bad container magic");
  }
  if (kind != static_cast<uint32_t>(expected_kind)) {
    return util::Status::InvalidArgument(
        "container holds artifact kind " + std::to_string(kind) +
        ", expected " +
        std::to_string(static_cast<uint32_t>(expected_kind)));
  }
  return util::Status::Ok();
}

util::Status Reader::ReadBytes(void* out, size_t size) {
  // Reads inside a section may not cross its payload end.
  const size_t limit = in_section_ ? section_end_ : bytes_.size();
  if (size > limit - pos_) {
    return util::Status::InvalidArgument("truncated container");
  }
  // An empty array's destination may be null, which memcpy forbids even
  // for zero bytes.
  if (size == 0) return util::Status::Ok();
  std::memcpy(out, bytes_.data() + pos_, size);
  pos_ += size;
  return util::Status::Ok();
}

size_t Reader::SectionBytesLeft() const {
  const size_t limit = in_section_ ? section_end_ : bytes_.size();
  return limit - pos_;
}

util::Status Reader::EnterSection(uint32_t expected_id) {
  MBR_CHECK(!in_section_);
  uint32_t id = 0;
  uint64_t len = 0;
  uint32_t crc = 0;
  MBR_RETURN_IF_ERROR(ReadPod(&id));
  MBR_RETURN_IF_ERROR(ReadPod(&len));
  MBR_RETURN_IF_ERROR(ReadPod(&crc));
  if (id != expected_id) {
    return util::Status::InvalidArgument(
        "expected section " + std::to_string(expected_id) + ", found " +
        std::to_string(id));
  }
  if (len > bytes_.size() - pos_) {
    return util::Status::InvalidArgument(
        "section " + std::to_string(id) + " longer than the container");
  }
  if (Crc32(bytes_.data() + pos_, static_cast<size_t>(len)) != crc) {
    return util::Status::InvalidArgument(
        "checksum mismatch in section " + std::to_string(id));
  }
  section_end_ = pos_ + static_cast<size_t>(len);
  in_section_ = true;
  return util::Status::Ok();
}

util::Status Reader::ExitSection() {
  MBR_CHECK(in_section_);
  in_section_ = false;
  if (pos_ != section_end_) {
    return util::Status::InvalidArgument("unconsumed bytes in section");
  }
  return util::Status::Ok();
}

util::Status Reader::ExpectEnd() const {
  MBR_CHECK(!in_section_);
  if (pos_ != bytes_.size()) {
    return util::Status::InvalidArgument("trailing bytes after last section");
  }
  return util::Status::Ok();
}

}  // namespace mbr::util::serde
