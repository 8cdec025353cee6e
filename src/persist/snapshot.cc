#include "persist/snapshot.h"

#include <algorithm>
#include <utility>

#include "common/posix_io.h"
#include "common/str_util.h"
#include "persist/format.h"

namespace sigsub {
namespace persist {
namespace {

// Sanity caps: a corrupt count field fails by name instead of driving
// a giant decode loop. All are far above anything legitimate.
constexpr uint32_t kMaxStreams = 1u << 20;
constexpr uint32_t kMaxProbs = 1u << 16;
constexpr uint32_t kMaxAlarms = 1u << 20;

Status Truncated(std::string_view what) {
  return Status::FailedPrecondition(
      StrCat("snapshot truncated at ", what));
}

void EncodeStream(BinaryWriter* writer,
                  const engine::PersistedStream& stream) {
  writer->PutString(stream.name);
  writer->PutU32(static_cast<uint32_t>(stream.probs.size()));
  for (double p : stream.probs) writer->PutDouble(p);
  writer->PutI64(stream.options.max_window);
  writer->PutDouble(stream.options.alpha);
  writer->PutDouble(stream.options.x2_threshold);
  writer->PutDouble(stream.options.rearm_fraction);
  writer->PutU8(0);  // Reserved: see kMaxReservedOptionsByte.
  writer->PutI64(stream.state.position);
  writer->PutI64(stream.state.alarms_raised);
  writer->PutU32(static_cast<uint32_t>(stream.state.counts.size()));
  for (int64_t count : stream.state.counts) writer->PutI64(count);
  writer->PutBytes(stream.state.in_alarm);
  writer->PutBytes(stream.state.recent);
  writer->PutU32(static_cast<uint32_t>(stream.alarms.size()));
  for (const core::StreamingDetector::Alarm& alarm : stream.alarms) {
    writer->PutI64(alarm.end);
    writer->PutI64(alarm.length);
    writer->PutDouble(alarm.chi_square);
    writer->PutDouble(alarm.p_value);
  }
  writer->PutI64(stream.alarms_dropped);
}

Result<engine::PersistedStream> DecodeStream(BinaryReader* reader) {
  engine::PersistedStream stream;
  if (!reader->GetString(&stream.name)) return Truncated("stream name");
  uint32_t probs = 0;
  if (!reader->GetU32(&probs)) return Truncated("model size");
  if (probs > kMaxProbs) {
    return Status::FailedPrecondition(
        StrCat("snapshot stream claims ", probs, " probabilities"));
  }
  stream.probs.resize(probs);
  for (uint32_t i = 0; i < probs; ++i) {
    if (!reader->GetDouble(&stream.probs[i])) return Truncated("model");
  }
  uint8_t reserved = 0;
  if (!reader->GetI64(&stream.options.max_window) ||
      !reader->GetDouble(&stream.options.alpha) ||
      !reader->GetDouble(&stream.options.x2_threshold) ||
      !reader->GetDouble(&stream.options.rearm_fraction) ||
      !reader->GetU8(&reserved)) {
    return Truncated("detector options");
  }
  if (reserved > kMaxReservedOptionsByte) {
    return Status::FailedPrecondition(
        StrCat("snapshot stream has unknown reserved options byte ",
               static_cast<int>(reserved)));
  }
  if (!reader->GetI64(&stream.state.position) ||
      !reader->GetI64(&stream.state.alarms_raised)) {
    return Truncated("detector position");
  }
  uint32_t counts = 0;
  if (!reader->GetU32(&counts)) return Truncated("counter size");
  if (static_cast<size_t>(counts) > reader->remaining() / 8) {
    return Status::FailedPrecondition(
        StrCat("snapshot stream claims ", counts, " counters with only ",
               reader->remaining(), " bytes left"));
  }
  stream.state.counts.resize(counts);
  for (uint32_t i = 0; i < counts; ++i) {
    if (!reader->GetI64(&stream.state.counts[i])) {
      return Truncated("counters");
    }
  }
  if (!reader->GetBytes(&stream.state.in_alarm)) {
    return Truncated("hysteresis flags");
  }
  if (!reader->GetBytes(&stream.state.recent)) {
    return Truncated("symbol ring");
  }
  uint32_t alarms = 0;
  if (!reader->GetU32(&alarms)) return Truncated("alarm count");
  if (alarms > kMaxAlarms) {
    return Status::FailedPrecondition(
        StrCat("snapshot stream claims ", alarms, " alarms"));
  }
  stream.alarms.resize(alarms);
  for (uint32_t i = 0; i < alarms; ++i) {
    core::StreamingDetector::Alarm& alarm = stream.alarms[i];
    if (!reader->GetI64(&alarm.end) || !reader->GetI64(&alarm.length) ||
        !reader->GetDouble(&alarm.chi_square) ||
        !reader->GetDouble(&alarm.p_value)) {
      return Truncated("alarm log");
    }
  }
  if (!reader->GetI64(&stream.alarms_dropped)) {
    return Truncated("dropped-alarm count");
  }
  return stream;
}

}  // namespace

std::string EncodeSnapshot(const SnapshotData& snapshot) {
  BinaryWriter payload;
  payload.PutU64(snapshot.last_lsn);
  payload.PutU32(static_cast<uint32_t>(snapshot.streams.size()));
  for (const engine::PersistedStream& stream : snapshot.streams) {
    EncodeStream(&payload, stream);
  }
  std::string out = EncodeFileHeader(FileKind::kSnapshot);
  AppendFrame(&out, payload.bytes());
  return out;
}

Result<SnapshotData> DecodeSnapshot(std::span<const uint8_t> bytes) {
  SIGSUB_ASSIGN_OR_RETURN(
      size_t header_size,
      CheckFileHeader(bytes, FileKind::kSnapshot,
                      /*require_fingerprint=*/false));
  FrameParser parser(bytes, header_size);
  std::span<const uint8_t> payload;
  switch (parser.Next(&payload)) {
    case FrameStatus::kOk:
      break;
    case FrameStatus::kEnd:
      return Status::FailedPrecondition("snapshot has no payload frame");
    case FrameStatus::kTorn:
      return Status::FailedPrecondition("snapshot payload truncated");
    case FrameStatus::kCorrupt:
      return Status::FailedPrecondition("snapshot checksum mismatch");
  }
  std::span<const uint8_t> rest;
  if (parser.Next(&rest) != FrameStatus::kEnd) {
    return Status::FailedPrecondition(
        "snapshot has trailing bytes after its payload frame");
  }

  BinaryReader reader(payload);
  SnapshotData snapshot;
  if (!reader.GetU64(&snapshot.last_lsn)) return Truncated("lsn");
  uint32_t streams = 0;
  if (!reader.GetU32(&streams)) return Truncated("stream count");
  if (streams > kMaxStreams) {
    return Status::FailedPrecondition(
        StrCat("snapshot claims ", streams, " streams"));
  }
  snapshot.streams.reserve(
      std::min<size_t>(streams, reader.remaining()));
  for (uint32_t i = 0; i < streams; ++i) {
    SIGSUB_ASSIGN_OR_RETURN(engine::PersistedStream stream,
                            DecodeStream(&reader));
    snapshot.streams.push_back(std::move(stream));
  }
  if (!reader.exhausted()) {
    return Status::FailedPrecondition(
        StrCat("snapshot has ", reader.remaining(), " trailing bytes"));
  }
  return snapshot;
}

Status WriteSnapshotFile(const std::string& path,
                         const SnapshotData& snapshot) {
  return AtomicWriteFile(path, EncodeSnapshot(snapshot));
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  SIGSUB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  Result<SnapshotData> snapshot = DecodeSnapshot(BytesOf(bytes));
  if (!snapshot.ok()) {
    return Status::FailedPrecondition(
        StrCat("snapshot ", path, ": ", snapshot.status().message()));
  }
  return snapshot;
}

}  // namespace persist
}  // namespace sigsub
