#include "persist/format.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/str_util.h"

namespace sigsub {
namespace persist {
namespace {

constexpr char kMagic[4] = {'S', 'G', 'S', 'B'};
constexpr size_t kHeaderSize = 4 + 4 + 4 + 8 + 4;
constexpr size_t kFrameHeaderSize = 4 + 4;

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         static_cast<uint64_t>(ReadU32(p + 4)) << 32;
}

// FNV-1a, the same construction the result cache uses for its keys.
uint64_t Fnv1a(std::string_view data, uint64_t hash) {
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ kCrcTable[(crc ^ byte) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) { return Crc32(BytesOf(data)); }

uint64_t BuildFingerprint() {
  uint64_t hash = 14695981039346656037ull;
  hash = Fnv1a(__VERSION__, hash);
  // Names the X² summation order (core::X2Kernel). Change it whenever
  // computed result bits change, so caches holding the old bits load
  // cold instead of serving them.
  hash = Fnv1a("x2-order:scalar-left-to-right;", hash);
  // Layout-bearing sizes: a build where any of these differ cannot
  // promise bit-identical replay of another build's cached results.
  const size_t sizes[] = {sizeof(void*), sizeof(long), sizeof(double),
                          static_cast<size_t>(kFormatVersion)};
  for (size_t value : sizes) {
    char digits[32];
    int len = std::snprintf(digits, sizeof(digits), "%zu;", value);
    hash = Fnv1a(std::string_view(digits, static_cast<size_t>(len)), hash);
  }
  return hash;
}

void BinaryWriter::PutU32(uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
  out_.append(bytes, sizeof(bytes));
}

void BinaryWriter::PutU64(uint64_t value) {
  PutU32(static_cast<uint32_t>(value));
  PutU32(static_cast<uint32_t>(value >> 32));
}

void BinaryWriter::PutDouble(double value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void BinaryWriter::PutBytes(std::span<const uint8_t> bytes) {
  PutU32(static_cast<uint32_t>(bytes.size()));
  out_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

void BinaryWriter::PutString(std::string_view text) {
  PutU32(static_cast<uint32_t>(text.size()));
  out_.append(text);
}

bool BinaryReader::GetU8(uint8_t* value) {
  if (remaining() < 1) return false;
  *value = data_[pos_++];
  return true;
}

bool BinaryReader::GetU32(uint32_t* value) {
  if (remaining() < 4) return false;
  *value = ReadU32(data_.data() + pos_);
  pos_ += 4;
  return true;
}

bool BinaryReader::GetU64(uint64_t* value) {
  if (remaining() < 8) return false;
  *value = ReadU64(data_.data() + pos_);
  pos_ += 8;
  return true;
}

bool BinaryReader::GetI64(int64_t* value) {
  uint64_t raw = 0;
  if (!GetU64(&raw)) return false;
  *value = static_cast<int64_t>(raw);
  return true;
}

bool BinaryReader::GetDouble(double* value) {
  uint64_t raw = 0;
  if (!GetU64(&raw)) return false;
  *value = std::bit_cast<double>(raw);
  return true;
}

bool BinaryReader::GetBytes(std::vector<uint8_t>* value) {
  uint32_t size = 0;
  if (!GetU32(&size)) return false;
  if (size > remaining()) {
    pos_ -= 4;  // Leave the reader where it was: the prefix is a lie.
    return false;
  }
  value->assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
                data_.begin() + static_cast<ptrdiff_t>(pos_ + size));
  pos_ += size;
  return true;
}

bool BinaryReader::GetString(std::string* value) {
  uint32_t size = 0;
  if (!GetU32(&size)) return false;
  if (size > remaining()) {
    pos_ -= 4;
    return false;
  }
  value->assign(reinterpret_cast<const char*>(data_.data() + pos_), size);
  pos_ += size;
  return true;
}

std::string EncodeFileHeader(FileKind kind) {
  BinaryWriter writer;
  writer.PutU8(static_cast<uint8_t>(kMagic[0]));
  writer.PutU8(static_cast<uint8_t>(kMagic[1]));
  writer.PutU8(static_cast<uint8_t>(kMagic[2]));
  writer.PutU8(static_cast<uint8_t>(kMagic[3]));
  writer.PutU32(kFormatVersion);
  writer.PutU32(static_cast<uint32_t>(kind));
  writer.PutU64(BuildFingerprint());
  writer.PutU32(Crc32(writer.bytes()));
  return writer.Take();
}

Result<size_t> CheckFileHeader(std::span<const uint8_t> data, FileKind kind,
                               bool require_fingerprint) {
  if (data.size() < kHeaderSize) {
    return Status::FailedPrecondition(
        StrCat("file header truncated: ", data.size(), " bytes, want ",
               kHeaderSize));
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::FailedPrecondition("bad magic: not a sigsub state file");
  }
  uint32_t stored_crc = ReadU32(data.data() + kHeaderSize - 4);
  uint32_t actual_crc = Crc32(data.subspan(0, kHeaderSize - 4));
  if (stored_crc != actual_crc) {
    return Status::FailedPrecondition("file header checksum mismatch");
  }
  uint32_t version = ReadU32(data.data() + 4);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        StrCat("format version ", version, " unsupported (this build reads ",
               kFormatVersion, ")"));
  }
  uint32_t file_kind = ReadU32(data.data() + 8);
  if (file_kind != static_cast<uint32_t>(kind)) {
    return Status::FailedPrecondition(
        StrCat("wrong file kind ", file_kind, ", want ",
               static_cast<uint32_t>(kind)));
  }
  if (require_fingerprint) {
    uint64_t fingerprint = ReadU64(data.data() + 12);
    if (fingerprint != BuildFingerprint()) {
      return Status::FailedPrecondition(
          "build fingerprint mismatch: state written by a different build");
    }
  }
  return kHeaderSize;
}

void AppendFrame(std::string* out, std::string_view payload) {
  BinaryWriter writer;
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  writer.PutU32(Crc32(payload));
  out->append(writer.bytes());
  out->append(payload);
}

FrameStatus FrameParser::Next(std::span<const uint8_t>* payload) {
  if (offset_ == data_.size()) return FrameStatus::kEnd;
  if (data_.size() - offset_ < kFrameHeaderSize) return FrameStatus::kTorn;
  uint32_t size = ReadU32(data_.data() + offset_);
  uint32_t stored_crc = ReadU32(data_.data() + offset_ + 4);
  if (size > kMaxFramePayload) return FrameStatus::kCorrupt;
  if (data_.size() - offset_ - kFrameHeaderSize < size) {
    return FrameStatus::kTorn;
  }
  std::span<const uint8_t> body =
      data_.subspan(offset_ + kFrameHeaderSize, size);
  if (Crc32(body) != stored_crc) return FrameStatus::kCorrupt;
  *payload = body;
  offset_ += kFrameHeaderSize + size;
  return FrameStatus::kOk;
}

}  // namespace persist
}  // namespace sigsub
