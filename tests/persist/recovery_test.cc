#include "persist/state_store.h"

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/fault_injection.h"
#include "common/posix_io.h"
#include "common/result.h"
#include "core/streaming.h"
#include "engine/result_cache.h"
#include "engine/stream_manager.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "testing/test_util.h"

// ThreadSanitizer cannot follow a fork()ed child that keeps running
// arbitrary code, so the SIGKILL crash-matrix tests compile out under
// TSan; ASan and plain builds run them.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIGSUB_SKIP_FORK_TESTS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SIGSUB_SKIP_FORK_TESTS 1
#endif

namespace sigsub {
namespace persist {
namespace {

core::StreamingDetector::Options SmallOptions() {
  core::StreamingDetector::Options options;
  options.max_window = 8;
  options.alpha = 1e-4;
  return options;
}

/// The deterministic append schedule the crash matrix uses: chunk i is
/// four symbols of an alternating pattern keyed on i.
std::vector<uint8_t> Chunk(int i) {
  return {static_cast<uint8_t>(i % 2), static_cast<uint8_t>((i + 1) % 2),
          static_cast<uint8_t>(i % 2), static_cast<uint8_t>(i % 2)};
}

class StateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sigsub_recovery_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    fault::Disarm();
    ::unlink(StateStore::JournalPath(dir_).c_str());
    ::unlink(StateStore::SnapshotPath(dir_).c_str());
    ::unlink(StateStore::CachePath(dir_).c_str());
    ::unlink((dir_ + "/acks").c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
};

/// Asserts the two managers hold bit-identical stream state.
void ExpectSameStreams(engine::StreamManager& a, engine::StreamManager& b) {
  std::vector<engine::PersistedStream> ea = a.ExportStreams();
  std::vector<engine::PersistedStream> eb = b.ExportStreams();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].name, eb[i].name);
    EXPECT_EQ(ea[i].probs, eb[i].probs);
    EXPECT_EQ(ea[i].state.position, eb[i].state.position);
    EXPECT_EQ(ea[i].state.counts, eb[i].state.counts);
    EXPECT_EQ(ea[i].state.in_alarm, eb[i].state.in_alarm);
    EXPECT_EQ(ea[i].state.recent, eb[i].state.recent);
    EXPECT_EQ(ea[i].state.alarms_raised, eb[i].state.alarms_raised);
    ASSERT_EQ(ea[i].alarms.size(), eb[i].alarms.size());
    for (size_t j = 0; j < ea[i].alarms.size(); ++j) {
      EXPECT_EQ(ea[i].alarms[j].end, eb[i].alarms[j].end);
      EXPECT_EQ(ea[i].alarms[j].chi_square, eb[i].alarms[j].chi_square);
    }
  }
}

TEST_F(StateStoreTest, JournalOnlyRecoveryRebuildsAcknowledgedState) {
  {
    engine::StreamManager streams;
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, nullptr, &recovery));
    EXPECT_FALSE(recovery.snapshot_loaded);
    // The server's ordering: journal first, then apply.
    ASSERT_OK(store.RecordCreate("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}, SmallOptions()));
    for (int i = 0; i < 6; ++i) {
      ASSERT_OK(store.RecordAppend("s", Chunk(i)));
      ASSERT_OK(streams.Append("s", Chunk(i)).status());
    }
    ASSERT_OK(store.RecordCreate("t", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(streams.CreateStream("t", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(store.RecordClose("t"));
    ASSERT_OK(streams.CloseStream("t"));
  }

  engine::StreamManager recovered;
  RecoveryStats recovery;
  ASSERT_OK_AND_ASSIGN(
      StateStore store,
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                       &recovered, nullptr, &recovery));
  EXPECT_EQ(recovery.journal_records_applied, 9);
  EXPECT_EQ(recovery.journal_records_failed, 0);
  EXPECT_FALSE(recovered.HasStream("t"));

  engine::StreamManager reference;
  ASSERT_OK(reference.CreateStream("s", {0.5, 0.5}, SmallOptions()));
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(reference.Append("s", Chunk(i)).status());
  }
  ExpectSameStreams(recovered, reference);
}

TEST_F(StateStoreTest, SnapshotPlusJournalTailRecovery) {
  {
    engine::StreamManager streams;
    engine::ResultCache cache(8);
    cache.Insert({1, 2}, {.match_count = 5});
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, &cache, &recovery));
    ASSERT_OK(store.RecordCreate("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(store.RecordAppend("s", Chunk(0)));
    ASSERT_OK(streams.Append("s", Chunk(0)).status());

    ASSERT_OK(store.Snapshot(streams, &cache));

    // Post-snapshot tail: only these should replay from the journal.
    ASSERT_OK(store.RecordAppend("s", Chunk(1)));
    ASSERT_OK(streams.Append("s", Chunk(1)).status());
  }

  engine::StreamManager recovered;
  engine::ResultCache cache(8);
  RecoveryStats recovery;
  ASSERT_OK_AND_ASSIGN(
      StateStore store,
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                       &recovered, &cache, &recovery));
  EXPECT_TRUE(recovery.snapshot_loaded);
  EXPECT_EQ(recovery.streams_restored, 1);
  EXPECT_EQ(recovery.journal_records_applied, 1);  // Chunk(1) only.
  EXPECT_EQ(recovery.cache_entries_loaded, 1);
  EXPECT_TRUE(cache.Lookup({1, 2}).has_value());

  engine::StreamManager reference;
  ASSERT_OK(reference.CreateStream("s", {0.5, 0.5}, SmallOptions()));
  ASSERT_OK(reference.Append("s", Chunk(0)).status());
  ASSERT_OK(reference.Append("s", Chunk(1)).status());
  ExpectSameStreams(recovered, reference);
}

TEST_F(StateStoreTest, CorruptSnapshotFailsOpenByName) {
  {
    engine::StreamManager streams;
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, nullptr, &recovery));
    ASSERT_OK(store.RecordCreate("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(store.Snapshot(streams, nullptr));
  }
  {
    int fd = ::open(StateStore::SnapshotPath(dir_).c_str(),
                    O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_OK(WriteFdAll(fd, "definitely not a snapshot"));
    ::close(fd);
  }
  engine::StreamManager streams;
  RecoveryStats recovery;
  Result<StateStore> reopened =
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                       &streams, nullptr, &recovery);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  // Nothing half-restored.
  EXPECT_TRUE(streams.StreamNames().empty());
}

TEST_F(StateStoreTest, CorruptCacheIsDiscardedQuietly) {
  {
    engine::StreamManager streams;
    engine::ResultCache cache(8);
    cache.Insert({3, 4}, {.match_count = 1});
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, &cache, &recovery));
    ASSERT_OK(store.Snapshot(streams, &cache));
  }
  {
    int fd = ::open(StateStore::CachePath(dir_).c_str(), O_WRONLY | O_TRUNC,
                    0644);
    ASSERT_GE(fd, 0);
    ASSERT_OK(WriteFdAll(fd, "junk cache"));
    ::close(fd);
  }
  engine::StreamManager streams;
  engine::ResultCache cache(8);
  RecoveryStats recovery;
  ASSERT_OK(StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                             &streams, &cache, &recovery)
                .status());
  EXPECT_TRUE(recovery.cache_discarded);
  EXPECT_EQ(recovery.cache_entries_loaded, 0);
  EXPECT_EQ(cache.size(), 0u);
}

/// Writes `value` into byte `offset` of the payload of the CRC frame that
/// starts at byte `frame` of the file at `path`, and re-seals the frame's
/// CRC. Frame layout: [u32 payload size][u32 crc][payload].
void PatchFramePayloadByte(const std::string& path, size_t frame,
                           size_t offset, uint8_t value) {
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path));
  ASSERT_LT(frame + 8 + offset, bytes.size());
  uint32_t size = 0;
  for (int i = 3; i >= 0; --i) {
    size = size << 8 | static_cast<uint8_t>(bytes[frame + i]);
  }
  bytes[frame + 8 + offset] = static_cast<char>(value);
  const uint32_t crc = Crc32(std::string_view(bytes).substr(frame + 8, size));
  for (int i = 0; i < 4; ++i) {
    bytes[frame + 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  ASSERT_OK(AtomicWriteFile(path, bytes));
}

/// Payload offset of the reserved byte of stream "s" (binary model) in a
/// one-stream snapshot: last_lsn u64 and a stream count u32, then the
/// name (u32 length + 1 byte), probs (u32 count + 2 doubles), max_window
/// i64 and three doubles.
constexpr size_t kSnapshotReservedByte =
    8 + 4 + (4 + 1) + (4 + 2 * 8) + 8 + 3 * 8;

/// Options under which a binary stream alarms often, so restored and
/// fresh streams have alarm logs worth comparing.
core::StreamingDetector::Options AlarmingOptions() {
  core::StreamingDetector::Options options;
  options.max_window = 16;
  options.x2_threshold = 6.0;
  return options;
}

// Journal CREATE records and snapshot streams carry a byte that earlier
// builds set to an X² order selector (0–2). A state dir holding 2 must
// restore, and its streams must go on exactly like fresh ones.
TEST_F(StateStoreTest, ReservedOptionsByteFromEarlierBuildsRestores) {
  const std::vector<double> probs = {0.5, 0.5};
  const std::vector<uint8_t> burst(24, 1);
  {
    engine::StreamManager streams;
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, nullptr, &recovery));
    ASSERT_OK(store.RecordCreate("s", probs, AlarmingOptions()));
    ASSERT_OK(streams.CreateStream("s", probs, AlarmingOptions()));
    ASSERT_OK(store.RecordAppend("s", burst));
    ASSERT_OK(streams.Append("s", burst).status());
    ASSERT_OK(store.Snapshot(streams, nullptr));
    // The snapshot reset the journal: t's CREATE is its first record.
    ASSERT_OK(store.RecordCreate("t", probs, AlarmingOptions()));
    ASSERT_OK(streams.CreateStream("t", probs, AlarmingOptions()));
    ASSERT_OK(store.RecordAppend("t", Chunk(0)));
    ASSERT_OK(streams.Append("t", Chunk(0)).status());
  }
  const size_t header = EncodeFileHeader(FileKind::kJournal).size();
  // The reserved byte ends a CREATE record.
  const JournalRecord create{.op = JournalOp::kCreate,
                             .stream = "t",
                             .probs = probs,
                             .options = AlarmingOptions()};
  PatchFramePayloadByte(StateStore::JournalPath(dir_), header,
                        EncodeJournalRecord(create).size() - 1, 2);
  PatchFramePayloadByte(StateStore::SnapshotPath(dir_), header,
                        kSnapshotReservedByte, 2);

  engine::StreamManager recovered;
  RecoveryStats recovery;
  ASSERT_OK_AND_ASSIGN(
      StateStore store,
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                       &recovered, nullptr, &recovery));
  EXPECT_EQ(recovery.streams_restored, 1);
  EXPECT_EQ(recovery.journal_records_applied, 2);
  EXPECT_EQ(recovery.journal_records_failed, 0);

  engine::StreamManager fresh;
  ASSERT_OK(fresh.CreateStream("s", probs, AlarmingOptions()));
  ASSERT_OK(fresh.Append("s", burst).status());
  ASSERT_OK(fresh.CreateStream("t", probs, AlarmingOptions()));
  ASSERT_OK(fresh.Append("t", Chunk(0)).status());
  for (const char* name : {"s", "t"}) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK_AND_ASSIGN(int64_t restored_alarms,
                           recovered.Append(name, burst));
      ASSERT_OK_AND_ASSIGN(int64_t fresh_alarms, fresh.Append(name, burst));
      EXPECT_EQ(restored_alarms, fresh_alarms) << name;
      ASSERT_OK(recovered.Append(name, Chunk(i)).status());
      ASSERT_OK(fresh.Append(name, Chunk(i)).status());
    }
  }
  ExpectSameStreams(recovered, fresh);
  ASSERT_OK_AND_ASSIGN(engine::StreamSnapshot t, recovered.Snapshot("t"));
  EXPECT_GT(t.alarms_total, 0);
}

// A reserved byte above every value earlier builds wrote is damage, and
// fails the restore by name instead of being ignored.
TEST_F(StateStoreTest, UnknownReservedOptionsByteFailsOpenByName) {
  {
    engine::StreamManager streams;
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, nullptr, &recovery));
    ASSERT_OK(store.RecordCreate("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(store.Snapshot(streams, nullptr));
  }
  PatchFramePayloadByte(StateStore::SnapshotPath(dir_),
                        EncodeFileHeader(FileKind::kSnapshot).size(),
                        kSnapshotReservedByte, 3);
  engine::StreamManager streams;
  RecoveryStats recovery;
  Result<StateStore> reopened =
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone}, &streams,
                       nullptr, &recovery);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("reserved options byte 3"),
            std::string::npos)
      << reopened.status().message();
  EXPECT_TRUE(streams.StreamNames().empty());
}

// The build fingerprint names the X² summation order, so a result cache
// written by a build with another fingerprint (say, one whose X² bits
// differ) is discarded by name and the cache starts cold; streams still
// restore.
TEST_F(StateStoreTest, CacheFromAnotherBuildLoadsCold) {
  {
    engine::StreamManager streams;
    engine::ResultCache cache(8);
    cache.Insert({5, 6}, {.match_count = 2});
    RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        StateStore store,
        StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                         &streams, &cache, &recovery));
    ASSERT_OK(store.RecordCreate("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}, SmallOptions()));
    ASSERT_OK(store.Snapshot(streams, &cache));
  }
  {
    // Header: magic(4) version(4) kind(4) fingerprint(8) crc(4). Flip a
    // fingerprint byte and re-seal the header CRC.
    ASSERT_OK_AND_ASSIGN(std::string bytes,
                         ReadFileToString(StateStore::CachePath(dir_)));
    bytes[12] = static_cast<char>(bytes[12] ^ 0x5a);
    const uint32_t crc = Crc32(std::string_view(bytes).substr(0, 20));
    for (int i = 0; i < 4; ++i) {
      bytes[20 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    ASSERT_OK(AtomicWriteFile(StateStore::CachePath(dir_), bytes));
  }
  engine::StreamManager streams;
  engine::ResultCache cache(8);
  RecoveryStats recovery;
  ASSERT_OK(StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                             &streams, &cache, &recovery)
                .status());
  EXPECT_TRUE(recovery.cache_discarded);
  EXPECT_EQ(recovery.cache_entries_loaded, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup({5, 6}).has_value());
  EXPECT_EQ(recovery.streams_restored, 1);
}

TEST_F(StateStoreTest, RecordFailureSurfacesEpersistConditions) {
  engine::StreamManager streams;
  RecoveryStats recovery;
  ASSERT_OK_AND_ASSIGN(
      StateStore store,
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kNone},
                       &streams, nullptr, &recovery));
  ASSERT_OK(store.RecordCreate("s", {0.5, 0.5}, SmallOptions()));
  ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}, SmallOptions()));

  ASSERT_OK(fault::Arm("write:1:ENOSPC"));
  Status failed = store.RecordAppend("s", Chunk(0));
  fault::Disarm();
  ASSERT_FALSE(failed.ok());
  // The op was not journaled; per the ordering contract the caller must
  // not apply it — and recovery agrees the journal holds only CREATE.
  Status ok = store.RecordAppend("s", Chunk(1));
  ASSERT_OK(ok);
  ASSERT_OK(streams.Append("s", Chunk(1)).status());
}

#ifndef SIGSUB_SKIP_FORK_TESTS

/// Crash matrix: a forked child journals a CREATE plus appends with a
/// SIGKILL armed on the nth journal write (or fsync), acknowledging each
/// completed op through a side file written with raw syscalls (the raw
/// ::write is deliberate — it must not advance the shim's counters).
/// The parent then recovers the state directory and requires the
/// recovered stream to be bit-identical to a reference fed exactly the
/// acknowledged chunks — plus at most the one in-flight chunk when the
/// kill landed between the journal write and the acknowledgment
/// (at-least-once of a real request, never an invented op).
class CrashMatrixTest : public StateStoreTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(CrashMatrixTest, KilledChildRecoversToAcknowledgedPrefix) {
  const std::string ack_path = dir_ + "/acks";
  const int kChunks = 8;

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // --- child: no gtest assertions past this point; _exit on error.
    int ack_fd =
        ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (ack_fd < 0) _exit(2);
    engine::StreamManager streams;
    RecoveryStats recovery;
    auto store = StateStore::Open(
        dir_, {.fsync_policy = FsyncPolicy::kAlways}, &streams, nullptr,
        &recovery);
    if (!store.ok()) _exit(3);
    if (!fault::Arm(GetParam()).ok()) _exit(4);
    if (!store->RecordCreate("s", {0.5, 0.5}, SmallOptions()).ok()) {
      _exit(0);  // EPERSIST path: op refused, nothing applied. Legal.
    }
    if (!streams.CreateStream("s", {0.5, 0.5}, SmallOptions()).ok()) {
      _exit(5);
    }
    // Raw syscalls on purpose: the ack channel must not pass through
    // the armed shim. fsync makes the ack at least as durable as the
    // journal record it confirms.
    if (::write(ack_fd, "C", 1) != 1 || ::fsync(ack_fd) != 0) _exit(6);
    for (int i = 0; i < kChunks; ++i) {
      if (!store->RecordAppend("s", Chunk(i)).ok()) _exit(0);  // EPERSIST.
      if (!streams.Append("s", Chunk(i)).ok()) _exit(7);
      if (::write(ack_fd, "A", 1) != 1 || ::fsync(ack_fd) != 0) _exit(8);
    }
    _exit(0);  // Armed count higher than the ops performed: no kill.
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  const bool killed = WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  const bool exited_clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  ASSERT_TRUE(killed || exited_clean)
      << "child ended unexpectedly, wstatus=" << wstatus;

  ASSERT_OK_AND_ASSIGN(std::string acks, ReadFileToString(ack_path));
  const bool created = !acks.empty() && acks[0] == 'C';
  const int acked_chunks =
      created ? static_cast<int>(acks.size()) - 1 : 0;

  engine::StreamManager recovered;
  RecoveryStats recovery;
  ASSERT_OK_AND_ASSIGN(
      StateStore store,
      StateStore::Open(dir_, {.fsync_policy = FsyncPolicy::kAlways},
                       &recovered, nullptr, &recovery));

  const int64_t total_ops =
      recovery.streams_restored + recovery.journal_records_applied;
  const int64_t acked_ops = (created ? 1 : 0) + acked_chunks;
  // Nothing acknowledged may be lost...
  ASSERT_GE(total_ops, acked_ops)
      << "acked ops lost (acks=\"" << acks << "\")";
  // ...and nothing may be invented beyond the single in-flight op.
  ASSERT_LE(total_ops, acked_ops + 1);
  const int recovered_chunks =
      static_cast<int>(total_ops) - (total_ops > 0 ? 1 : 0);

  // Bit-identical to a reference fed exactly the recovered prefix.
  engine::StreamManager reference;
  if (total_ops > 0) {
    ASSERT_OK(reference.CreateStream("s", {0.5, 0.5}, SmallOptions()));
    for (int i = 0; i < recovered_chunks; ++i) {
      ASSERT_OK(reference.Append("s", Chunk(i)).status());
    }
  }
  ExpectSameStreams(recovered, reference);

  // And the journal survived its torn tail: appending works again.
  if (total_ops > 0) {
    ASSERT_OK(store.RecordAppend("s", Chunk(0)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KillPoints, CrashMatrixTest,
    ::testing::Values("write:1:kill", "write:2:kill", "write:3:kill",
                      "write:5:kill", "write:8:kill", "write:40:kill",
                      "fsync:1:kill", "fsync:3:kill", "fsync:7:kill"));

#endif  // SIGSUB_SKIP_FORK_TESTS

}  // namespace
}  // namespace persist
}  // namespace sigsub
