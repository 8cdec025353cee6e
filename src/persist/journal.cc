#include "persist/journal.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/posix_io.h"
#include "common/str_util.h"
#include "persist/format.h"

namespace sigsub {
namespace persist {
namespace {

// Caps a CREATE's probability vector and an APPEND's symbol chunk far
// above anything legitimate; a corrupt count field fails by name
// instead of driving a giant loop.
constexpr uint32_t kMaxProbs = 1u << 16;

Status Truncated(std::string_view what) {
  return Status::FailedPrecondition(
      StrCat("journal record truncated at ", what));
}

}  // namespace

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text) {
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument(
      StrCat("fsync policy must be none|always, got \"", std::string(text),
             "\""));
}

std::string EncodeJournalRecord(const JournalRecord& record) {
  BinaryWriter writer;
  writer.PutU64(record.lsn);
  writer.PutU8(static_cast<uint8_t>(record.op));
  writer.PutString(record.stream);
  switch (record.op) {
    case JournalOp::kCreate:
      writer.PutU32(static_cast<uint32_t>(record.probs.size()));
      for (double p : record.probs) writer.PutDouble(p);
      writer.PutI64(record.options.max_window);
      writer.PutDouble(record.options.alpha);
      writer.PutDouble(record.options.x2_threshold);
      writer.PutDouble(record.options.rearm_fraction);
      writer.PutU8(0);  // Reserved: see kMaxReservedOptionsByte.
      break;
    case JournalOp::kAppend:
      writer.PutBytes(record.symbols);
      break;
    case JournalOp::kClose:
      break;
  }
  return writer.Take();
}

Result<JournalRecord> DecodeJournalRecord(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  JournalRecord record;
  uint8_t op = 0;
  if (!reader.GetU64(&record.lsn)) return Truncated("lsn");
  if (!reader.GetU8(&op)) return Truncated("op");
  if (op < static_cast<uint8_t>(JournalOp::kCreate) ||
      op > static_cast<uint8_t>(JournalOp::kClose)) {
    return Status::FailedPrecondition(
        StrCat("journal record has unknown op ", static_cast<int>(op)));
  }
  record.op = static_cast<JournalOp>(op);
  if (!reader.GetString(&record.stream)) return Truncated("stream name");
  switch (record.op) {
    case JournalOp::kCreate: {
      uint32_t probs = 0;
      if (!reader.GetU32(&probs)) return Truncated("model size");
      if (probs > kMaxProbs) {
        return Status::FailedPrecondition(
            StrCat("journal CREATE claims ", probs, " probabilities"));
      }
      record.probs.resize(probs);
      for (uint32_t i = 0; i < probs; ++i) {
        if (!reader.GetDouble(&record.probs[i])) return Truncated("model");
      }
      uint8_t reserved = 0;
      if (!reader.GetI64(&record.options.max_window) ||
          !reader.GetDouble(&record.options.alpha) ||
          !reader.GetDouble(&record.options.x2_threshold) ||
          !reader.GetDouble(&record.options.rearm_fraction) ||
          !reader.GetU8(&reserved)) {
        return Truncated("detector options");
      }
      if (reserved > kMaxReservedOptionsByte) {
        return Status::FailedPrecondition(
            StrCat("journal CREATE has unknown reserved options byte ",
                   static_cast<int>(reserved)));
      }
      break;
    }
    case JournalOp::kAppend:
      if (!reader.GetBytes(&record.symbols)) return Truncated("symbols");
      break;
    case JournalOp::kClose:
      break;
  }
  if (!reader.exhausted()) {
    return Status::FailedPrecondition(
        StrCat("journal record has ", reader.remaining(),
               " trailing bytes"));
  }
  return record;
}

Result<JournalReplay> ParseJournal(std::span<const uint8_t> bytes) {
  SIGSUB_ASSIGN_OR_RETURN(
      size_t header_size,
      CheckFileHeader(bytes, FileKind::kJournal,
                      /*require_fingerprint=*/false));
  JournalReplay replay;
  FrameParser parser(bytes, header_size);
  replay.valid_bytes = parser.offset();
  for (;;) {
    std::span<const uint8_t> payload;
    FrameStatus status = parser.Next(&payload);
    if (status != FrameStatus::kOk) break;
    Result<JournalRecord> record = DecodeJournalRecord(payload);
    // A CRC-valid frame holding a malformed record is still a bad tail:
    // stop replay here, exactly as for a torn frame.
    if (!record.ok()) break;
    if (record->lsn < replay.next_lsn) break;  // LSNs must increase.
    replay.next_lsn = record->lsn + 1;
    replay.records.push_back(*std::move(record));
    replay.valid_bytes = parser.offset();
  }
  replay.truncated_bytes = bytes.size() - replay.valid_bytes;
  return replay;
}

Result<Journal> Journal::Open(std::string path, FsyncPolicy policy,
                              JournalReplay* replay) {
  Result<std::string> existing = ReadFileToString(path);
  if (!existing.ok() && existing.status().code() != StatusCode::kNotFound) {
    return std::move(existing).status();
  }

  JournalReplay parsed;
  bool fresh = !existing.ok() || existing->empty();
  if (!fresh) {
    SIGSUB_ASSIGN_OR_RETURN(parsed, ParseJournal(BytesOf(*existing)));
  }

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError(
        StrCat("open(", path, "): ", std::strerror(errno)));
  }

  if (fresh) {
    std::string header = EncodeFileHeader(FileKind::kJournal);
    Status written = WriteFdAll(fd, header);
    if (written.ok() && RawFsync(fd) != 0) {
      written = Status::IOError(
          StrCat("fsync(", path, "): ", std::strerror(errno)));
    }
    if (!written.ok()) {
      ::close(fd);
      return written;
    }
    parsed.valid_bytes = header.size();
  } else if (parsed.truncated_bytes > 0) {
    // Drop the torn tail physically so the next crash-free append
    // starts at a record boundary.
    if (::ftruncate(fd, static_cast<off_t>(parsed.valid_bytes)) != 0) {
      Status status = Status::IOError(
          StrCat("ftruncate(", path, "): ", std::strerror(errno)));
      ::close(fd);
      return status;
    }
  }

  if (replay != nullptr) *replay = parsed;
  return Journal(std::move(path), fd, policy, parsed.next_lsn,
                 parsed.valid_bytes);
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      policy_(other.policy_),
      next_lsn_(other.next_lsn_),
      good_offset_(other.good_offset_),
      broken_(other.broken_) {
  other.fd_ = -1;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    policy_ = other.policy_;
    next_lsn_ = other.next_lsn_;
    good_offset_ = other.good_offset_;
    broken_ = other.broken_;
    other.fd_ = -1;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> Journal::Append(JournalRecord record) {
  if (broken_) {
    return Status::FailedPrecondition(
        StrCat("journal ", path_, " is broken after an unrecoverable "
                                  "write error; restart to recover"));
  }
  record.lsn = next_lsn_;
  std::string frame;
  AppendFrame(&frame, EncodeJournalRecord(record));
  Status written = WriteFdAll(fd_, frame);
  if (written.ok() && policy_ == FsyncPolicy::kAlways &&
      RawFsync(fd_) != 0) {
    written = Status::IOError(
        StrCat("fsync(", path_, "): ", std::strerror(errno)));
    // The bytes are in the page cache but their durability is unknown;
    // after a failed fsync no later fsync can be trusted to cover them
    // (the kernel may have dropped the dirty pages). Fail closed.
    broken_ = true;
    return written;
  }
  if (!written.ok()) {
    // A partial record may be on disk. Cut back to the last record
    // boundary so the file stays parseable for the ops already
    // acknowledged; if the cut fails too, refuse all further appends —
    // anything written after garbage would be unreachable at replay.
    if (::ftruncate(fd_, static_cast<off_t>(good_offset_)) != 0) {
      broken_ = true;
    }
    return written;
  }
  good_offset_ += frame.size();
  ++next_lsn_;
  return record.lsn;
}

Status Journal::Reset() {
  if (broken_) {
    return Status::FailedPrecondition(
        StrCat("journal ", path_, " is broken; cannot reset"));
  }
  const size_t header_size = EncodeFileHeader(FileKind::kJournal).size();
  if (::ftruncate(fd_, static_cast<off_t>(header_size)) != 0) {
    return Status::IOError(
        StrCat("ftruncate(", path_, "): ", std::strerror(errno)));
  }
  if (policy_ == FsyncPolicy::kAlways && RawFsync(fd_) != 0) {
    return Status::IOError(
        StrCat("fsync(", path_, "): ", std::strerror(errno)));
  }
  good_offset_ = header_size;
  return Status::OK();
}

}  // namespace persist
}  // namespace sigsub
