#ifndef SIGSUB_PERSIST_FORMAT_H_
#define SIGSUB_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace sigsub {
namespace persist {

/// The on-disk byte discipline shared by the journal, snapshots, and the
/// persistent result cache: little-endian fixed-width scalars written by
/// BinaryWriter and read back by the bounds-checked BinaryReader, inside
/// CRC-framed records behind a versioned file header. Everything read
/// from disk is untrusted input — after a crash the tail of a file can
/// be any byte string — so every reader here fails with a Status instead
/// of asserting, and fuzz/persist_fuzz.cc drives them with arbitrary
/// bytes.

/// Bumped on any incompatible layout change; readers reject other
/// versions by name rather than misparse.
inline constexpr uint32_t kFormatVersion = 1;

/// Journal CREATE records and snapshot streams carry one byte after the
/// detector's rearm_fraction. It once named an X² summation order; there
/// is one order now, so writers put 0 and readers accept every value up
/// to this one, which covers all that earlier builds wrote.
inline constexpr uint8_t kMaxReservedOptionsByte = 2;

/// Hard cap on a single frame payload. Nothing legitimate approaches
/// this; it bounds what a corrupt length prefix can make a reader do.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class FileKind : uint32_t {
  kJournal = 1,
  kSnapshot = 2,
  kResultCache = 3,
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention), table-driven.
uint32_t Crc32(std::span<const uint8_t> data);
uint32_t Crc32(std::string_view data);

/// Fingerprint of the producing build: a hash over the compiler banner,
/// the X² summation order, the format version, and the layout-bearing
/// type sizes. Deliberately
/// excludes timestamps so identical builds agree. Same fingerprint =>
/// cached results are bit-reproducible by this binary; the result cache
/// discards entries from any other fingerprint, while journal and
/// snapshot readers accept them (pure data, valid across builds).
uint64_t BuildFingerprint();

/// Append-only little-endian encoder. Writes never fail; the buffer is
/// plain std::string so it can go straight to WriteFdAll.
class BinaryWriter {
 public:
  void PutU8(uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutDouble(double value);
  /// Length-prefixed (u32) byte string.
  void PutBytes(std::span<const uint8_t> bytes);
  void PutString(std::string_view text);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian decoder over an in-memory span. Every
/// getter returns false (without advancing) when the remaining bytes
/// cannot satisfy it; length prefixes are validated against what is
/// actually present before any allocation, so corrupt lengths cannot
/// trigger huge reservations.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  bool GetU8(uint8_t* value);
  bool GetU32(uint32_t* value);
  bool GetU64(uint64_t* value);
  bool GetI64(int64_t* value);
  bool GetDouble(double* value);
  /// Length-prefixed byte string (the PutBytes/PutString framing).
  bool GetBytes(std::vector<uint8_t>* value);
  bool GetString(std::string* value);

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// 24-byte file header: "SGSB" magic, format version, file kind, build
/// fingerprint, and a CRC over the preceding fields.
std::string EncodeFileHeader(FileKind kind);

/// Validates the header at the front of `data` and returns the number
/// of bytes it occupies. Names the failure (bad magic, version or kind
/// mismatch, CRC) in the Status. Fingerprint is checked only when
/// `require_fingerprint` (the result cache); FailedPrecondition there
/// means "valid file from a different build" — discard, don't distrust.
Result<size_t> CheckFileHeader(std::span<const uint8_t> data, FileKind kind,
                               bool require_fingerprint);

/// Appends one CRC frame — [u32 payload size][u32 crc][payload] — to
/// `out`. Frames are the journal's record unit and let a reader tell a
/// torn tail from corruption.
void AppendFrame(std::string* out, std::string_view payload);

enum class FrameStatus {
  kOk,       // A complete, CRC-valid frame was produced.
  kEnd,      // Clean end of input: no bytes after the last frame.
  kTorn,     // Input ends mid-frame: a crash truncated the tail.
  kCorrupt,  // Full-length frame whose CRC (or size field) is wrong.
};

/// Iterates CRC frames over in-memory bytes. `offset()` is the first
/// unconsumed byte: after kOk it is the next frame's start, and on
/// kTorn/kCorrupt it stays at the bad frame's first byte — exactly the
/// truncation point recovery needs.
class FrameParser {
 public:
  FrameParser(std::span<const uint8_t> data, size_t offset)
      : data_(data), offset_(offset) {}

  /// On kOk fills `*payload` (a view into the input) and advances.
  FrameStatus Next(std::span<const uint8_t>* payload);

  size_t offset() const { return offset_; }

 private:
  std::span<const uint8_t> data_;
  size_t offset_;
};

/// Convenience span view over a string's bytes.
inline std::span<const uint8_t> BytesOf(std::string_view text) {
  return {reinterpret_cast<const uint8_t*>(text.data()), text.size()};
}

}  // namespace persist
}  // namespace sigsub

#endif  // SIGSUB_PERSIST_FORMAT_H_
