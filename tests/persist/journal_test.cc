#include "persist/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/fault_injection.h"
#include "common/posix_io.h"
#include "common/result.h"
#include "persist/format.h"
#include "testing/test_util.h"

namespace sigsub {
namespace persist {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sigsub_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/journal.wal";
  }

  void TearDown() override {
    fault::Disarm();
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
  std::string path_;
};

JournalRecord CreateRecord(const std::string& stream) {
  JournalRecord record;
  record.op = JournalOp::kCreate;
  record.stream = stream;
  record.probs = {0.25, 0.75};
  record.options.max_window = 128;
  record.options.alpha = 1e-4;
  return record;
}

JournalRecord AppendRecord(const std::string& stream,
                           std::vector<uint8_t> symbols) {
  JournalRecord record;
  record.op = JournalOp::kAppend;
  record.stream = stream;
  record.symbols = std::move(symbols);
  return record;
}

TEST_F(JournalTest, RecordCodecRoundTripsEveryOp) {
  JournalRecord create = CreateRecord("s");
  create.lsn = 7;
  ASSERT_OK_AND_ASSIGN(JournalRecord decoded,
                       DecodeJournalRecord(BytesOf(
                           EncodeJournalRecord(create))));
  EXPECT_EQ(decoded.lsn, 7u);
  EXPECT_EQ(decoded.op, JournalOp::kCreate);
  EXPECT_EQ(decoded.stream, "s");
  EXPECT_EQ(decoded.probs, create.probs);
  EXPECT_EQ(decoded.options.max_window, 128);
  EXPECT_EQ(decoded.options.alpha, 1e-4);

  JournalRecord append = AppendRecord("s", {0, 1, 1, 0});
  append.lsn = 8;
  ASSERT_OK_AND_ASSIGN(decoded, DecodeJournalRecord(BytesOf(
                                    EncodeJournalRecord(append))));
  EXPECT_EQ(decoded.op, JournalOp::kAppend);
  EXPECT_EQ(decoded.symbols, (std::vector<uint8_t>{0, 1, 1, 0}));

  JournalRecord close;
  close.op = JournalOp::kClose;
  close.stream = "s";
  close.lsn = 9;
  ASSERT_OK_AND_ASSIGN(decoded, DecodeJournalRecord(BytesOf(
                                    EncodeJournalRecord(close))));
  EXPECT_EQ(decoded.op, JournalOp::kClose);
}

TEST_F(JournalTest, DecodeRejectsTrailingBytes) {
  std::string bytes = EncodeJournalRecord(CreateRecord("s"));
  bytes += "extra";
  EXPECT_FALSE(DecodeJournalRecord(BytesOf(bytes)).ok());
}

TEST_F(JournalTest, CreateReservedByteAcceptsEarlierValuesOnly) {
  // The byte that ends a CREATE record once named an X² order (0–2).
  // This build writes 0 and reads back all three; 3 fails by name.
  std::string bytes = EncodeJournalRecord(CreateRecord("s"));
  EXPECT_EQ(bytes.back(), 0);
  for (char value : {1, 2}) {
    bytes.back() = value;
    ASSERT_OK_AND_ASSIGN(JournalRecord decoded,
                         DecodeJournalRecord(BytesOf(bytes)));
    EXPECT_EQ(decoded.options.max_window, 128);
  }
  bytes.back() = 3;
  Result<JournalRecord> bad = DecodeJournalRecord(BytesOf(bytes));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("reserved options byte 3"),
            std::string::npos)
      << bad.status().message();
}

TEST_F(JournalTest, AppendThenReopenReplaysEverything) {
  {
    JournalReplay replay;
    ASSERT_OK_AND_ASSIGN(
        Journal journal,
        Journal::Open(path_, FsyncPolicy::kAlways, &replay));
    EXPECT_TRUE(replay.records.empty());
    ASSERT_OK_AND_ASSIGN(uint64_t lsn1, journal.Append(CreateRecord("a")));
    ASSERT_OK_AND_ASSIGN(uint64_t lsn2,
                         journal.Append(AppendRecord("a", {1, 0, 1})));
    EXPECT_EQ(lsn1, 1u);
    EXPECT_EQ(lsn2, 2u);
    EXPECT_EQ(journal.last_lsn(), 2u);
  }
  JournalReplay replay;
  ASSERT_OK_AND_ASSIGN(Journal journal,
                       Journal::Open(path_, FsyncPolicy::kAlways, &replay));
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].op, JournalOp::kCreate);
  EXPECT_EQ(replay.records[1].op, JournalOp::kAppend);
  EXPECT_EQ(replay.records[1].symbols, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(replay.truncated_bytes, 0u);
  // LSNs continue where the file left off.
  ASSERT_OK_AND_ASSIGN(uint64_t lsn, journal.Append(CreateRecord("b")));
  EXPECT_EQ(lsn, 3u);
}

TEST_F(JournalTest, TornTailIsTruncatedOnOpen) {
  {
    JournalReplay replay;
    ASSERT_OK_AND_ASSIGN(
        Journal journal,
        Journal::Open(path_, FsyncPolicy::kNone, &replay));
    ASSERT_OK(journal.Append(CreateRecord("a")).status());
    ASSERT_OK(journal.Append(AppendRecord("a", {1, 1, 1, 1})).status());
  }
  // Crash simulation: chop bytes off the last record.
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path_));
  size_t full = bytes.size();
  bytes.resize(full - 5);
  {
    int fd = ::open(path_.c_str(), O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_OK(WriteFdAll(fd, bytes));
    ::close(fd);
  }

  JournalReplay replay;
  ASSERT_OK_AND_ASSIGN(Journal journal,
                       Journal::Open(path_, FsyncPolicy::kNone, &replay));
  ASSERT_EQ(replay.records.size(), 1u);  // The torn APPEND is gone.
  EXPECT_EQ(replay.records[0].op, JournalOp::kCreate);
  EXPECT_GT(replay.truncated_bytes, 0u);
  // The tail was truncated physically, and new appends land cleanly.
  ASSERT_OK(journal.Append(AppendRecord("a", {0})).status());
  ASSERT_OK_AND_ASSIGN(std::string repaired, ReadFileToString(path_));
  ASSERT_OK_AND_ASSIGN(JournalReplay reparsed,
                       ParseJournal(BytesOf(repaired)));
  ASSERT_EQ(reparsed.records.size(), 2u);
  EXPECT_EQ(reparsed.truncated_bytes, 0u);
  EXPECT_EQ(reparsed.records[1].symbols, (std::vector<uint8_t>{0}));
}

TEST_F(JournalTest, CorruptFrameEndsReplayAtTheLastGoodRecord) {
  {
    JournalReplay replay;
    ASSERT_OK_AND_ASSIGN(
        Journal journal,
        Journal::Open(path_, FsyncPolicy::kNone, &replay));
    ASSERT_OK(journal.Append(CreateRecord("a")).status());
    ASSERT_OK(journal.Append(AppendRecord("a", {1, 2, 3})).status());
  }
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path_));
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x7f);
  ASSERT_OK_AND_ASSIGN(JournalReplay replay, ParseJournal(BytesOf(bytes)));
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_GT(replay.truncated_bytes, 0u);
}

TEST_F(JournalTest, ParseJournalRejectsForeignFilesByName) {
  EXPECT_FALSE(ParseJournal(BytesOf("not a journal at all")).ok());
  // A snapshot header is a sigsub file of the wrong kind.
  std::string snapshot_header = EncodeFileHeader(FileKind::kSnapshot);
  EXPECT_FALSE(ParseJournal(BytesOf(snapshot_header)).ok());
}

TEST_F(JournalTest, ResetDropsRecordsButKeepsTheLsnCounter) {
  JournalReplay replay;
  ASSERT_OK_AND_ASSIGN(Journal journal,
                       Journal::Open(path_, FsyncPolicy::kAlways, &replay));
  ASSERT_OK(journal.Append(CreateRecord("a")).status());
  ASSERT_OK(journal.Append(AppendRecord("a", {1})).status());
  ASSERT_OK(journal.Reset());
  EXPECT_EQ(journal.last_lsn(), 2u);  // The counter survives the reset.

  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path_));
  ASSERT_OK_AND_ASSIGN(JournalReplay reparsed, ParseJournal(BytesOf(bytes)));
  EXPECT_TRUE(reparsed.records.empty());

  // The next record carries LSN 3 — unique across the truncation, which
  // is what snapshot/journal reconciliation keys on.
  ASSERT_OK_AND_ASSIGN(uint64_t lsn, journal.Append(CreateRecord("b")));
  EXPECT_EQ(lsn, 3u);
}

TEST_F(JournalTest, FailedAppendLeavesTheFileParseable) {
  JournalReplay replay;
  ASSERT_OK_AND_ASSIGN(Journal journal,
                       Journal::Open(path_, FsyncPolicy::kNone, &replay));
  ASSERT_OK(journal.Append(CreateRecord("a")).status());

  // The next RawWrite fails with ENOSPC: the append reports the error
  // and the acknowledged prefix stays intact on disk.
  ASSERT_OK(fault::Arm("write:1:ENOSPC"));
  Result<uint64_t> failed = journal.Append(AppendRecord("a", {1, 2}));
  fault::Disarm();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path_));
  ASSERT_OK_AND_ASSIGN(JournalReplay reparsed, ParseJournal(BytesOf(bytes)));
  ASSERT_EQ(reparsed.records.size(), 1u);
  EXPECT_EQ(reparsed.truncated_bytes, 0u);

  // The journal recovered: the LSN was not consumed and later appends
  // land normally.
  ASSERT_OK_AND_ASSIGN(uint64_t lsn, journal.Append(AppendRecord("a", {3})));
  EXPECT_EQ(lsn, 2u);
}

TEST_F(JournalTest, FailedFsyncBreaksTheJournalClosed) {
  JournalReplay replay;
  ASSERT_OK_AND_ASSIGN(Journal journal,
                       Journal::Open(path_, FsyncPolicy::kAlways, &replay));
  ASSERT_OK(journal.Append(CreateRecord("a")).status());

  // fsyncgate discipline: after a failed fsync the kernel may have
  // dropped the dirty pages, so no later fsync can vouch for them. The
  // journal fails closed until a restart re-reads what actually landed.
  ASSERT_OK(fault::Arm("fsync:1:EIO"));
  Result<uint64_t> failed = journal.Append(AppendRecord("a", {9}));
  fault::Disarm();
  ASSERT_FALSE(failed.ok());

  Result<uint64_t> after = journal.Append(AppendRecord("a", {9}));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace persist
}  // namespace sigsub
