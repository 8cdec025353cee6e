#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/fault_injection.h"
#include "common/posix_io.h"
#include "common/str_util.h"
#include "core/streaming.h"
#include "engine/corpus.h"
#include "engine/stream_manager.h"
#include "persist/journal.h"
#include "persist/state_store.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/test_util.h"

namespace sigsub {
namespace server {
namespace {

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

engine::Corpus TestCorpus() {
  std::vector<std::string> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back("abababab" + std::string(static_cast<size_t>(4 + i), 'a'));
  }
  auto corpus = engine::Corpus::FromStrings(records, "ab");
  EXPECT_TRUE(corpus.ok()) << corpus.status().message();
  return *std::move(corpus);
}

Result<LineClient> ConnectTo(const Server& server) {
  return LineClient::Connect("127.0.0.1", server.port(), 5000);
}

class ServerPersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sigsub_server_persist_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    options_.state_dir = dir_;
    // No timer snapshots: the tests control exactly when the journal is
    // truncated (drain snapshots still fire).
    options_.snapshot_interval_ms = 0;
    options_.fsync_policy = persist::FsyncPolicy::kNone;
  }

  void TearDown() override {
    fault::Disarm();
    ::unlink(persist::StateStore::JournalPath(dir_).c_str());
    ::unlink(persist::StateStore::SnapshotPath(dir_).c_str());
    ::unlink(persist::StateStore::CachePath(dir_).c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
  ServerOptions options_;
};

TEST_F(ServerPersistTest, RestartRestoresStreamsBitIdentically) {
  std::string snapshot_before;
  {
    Server server(TestCorpus(), options_);
    ASSERT_OK(server.Start());
    EXPECT_FALSE(server.recovery().snapshot_loaded);  // Cold start.
    ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

    ASSERT_OK(client.SendLine(
        "STREAM.CREATE s1 probs=0.9;0.1 alpha=0.0001 max_window=64"));
    ASSERT_OK_AND_ASSIGN(std::string created, client.ReadLine());
    EXPECT_EQ(created, "OK created s1");
    ASSERT_OK(client.SendLine(
        StrCat("STREAM.APPEND s1 ", std::string(256, '1'))));
    ASSERT_OK_AND_ASSIGN(std::string appended, client.ReadLine());
    ASSERT_TRUE(StartsWith(appended, "OK alarms=")) << appended;

    ASSERT_OK(client.SendLine("STREAM.SNAPSHOT s1"));
    ASSERT_OK_AND_ASSIGN(snapshot_before, client.ReadLine());
    ASSERT_TRUE(StartsWith(snapshot_before, "OK stream=s1 position=256 "))
        << snapshot_before;

    server.RequestDrain();
    server.Join();
  }

  // A brand new process image: same state dir, fresh server.
  Server server(TestCorpus(), options_);
  ASSERT_OK(server.Start());
  // Drain snapshotted, so recovery comes from the snapshot (journal
  // truncated) — not a journal replay.
  EXPECT_TRUE(server.recovery().snapshot_loaded);
  EXPECT_EQ(server.recovery().streams_restored, 1);
  EXPECT_EQ(server.recovery().journal_records_applied, 0);

  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT s1"));
  ASSERT_OK_AND_ASSIGN(std::string snapshot_after, client.ReadLine());
  // The whole point: byte-for-byte the same detector state over the wire.
  EXPECT_EQ(snapshot_after, snapshot_before);

  // The restored stream is live, not a husk: appends keep working.
  ASSERT_OK(client.SendLine(
      StrCat("STREAM.APPEND s1 ", std::string(16, '0'))));
  ASSERT_OK_AND_ASSIGN(std::string more, client.ReadLine());
  EXPECT_TRUE(StartsWith(more, "OK alarms=")) << more;
}

TEST_F(ServerPersistTest, KilledServerReplaysItsJournal) {
  // A SIGKILL leaves a journal but no fresh snapshot (the destructor
  // path drains and snapshots, so simulate the kill by building the
  // journal-only state directory with the same StateStore the server
  // uses).
  {
    engine::StreamManager streams;
    persist::RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        persist::StateStore store,
        persist::StateStore::Open(
            dir_, {.fsync_policy = persist::FsyncPolicy::kNone}, &streams,
            nullptr, &recovery));
    core::StreamingDetector::Options detector_options;
    detector_options.max_window = 32;
    detector_options.alpha = 1e-4;
    ASSERT_OK(store.RecordCreate("s1", {0.5, 0.5}, detector_options));
    ASSERT_OK(store.RecordAppend("s1", std::vector<uint8_t>{0, 1, 0, 1}));
  }

  Server server(TestCorpus(), options_);
  ASSERT_OK(server.Start());
  EXPECT_FALSE(server.recovery().snapshot_loaded);
  EXPECT_EQ(server.recovery().journal_records_applied, 2);

  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT s1"));
  ASSERT_OK_AND_ASSIGN(std::string snapshot, client.ReadLine());
  EXPECT_TRUE(StartsWith(snapshot, "OK stream=s1 position=4 ")) << snapshot;
}

TEST_F(ServerPersistTest, JournaledHostileWindowReplaysAsFailed) {
  // The server journals a CREATE before applying it, so a hostile window
  // that the detector refuses stays in the journal and is replayed on
  // every restart. The replay must fail it by name, not allocate it.
  {
    engine::StreamManager streams;
    persist::RecoveryStats recovery;
    ASSERT_OK_AND_ASSIGN(
        persist::StateStore store,
        persist::StateStore::Open(
            dir_, {.fsync_policy = persist::FsyncPolicy::kNone}, &streams,
            nullptr, &recovery));
    core::StreamingDetector::Options hostile;
    hostile.max_window = int64_t{1} << 36;
    ASSERT_OK(store.RecordCreate("huge", {0.5, 0.5}, hostile));
    core::StreamingDetector::Options sane;
    sane.max_window = 32;
    ASSERT_OK(store.RecordCreate("s1", {0.5, 0.5}, sane));
    ASSERT_OK(store.RecordAppend("s1", std::vector<uint8_t>{0, 1, 1}));
  }

  Server server(TestCorpus(), options_);
  ASSERT_OK(server.Start());
  EXPECT_EQ(server.recovery().journal_records_failed, 1);
  EXPECT_EQ(server.recovery().journal_records_applied, 2);

  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
  ASSERT_OK(client.SendLine("PING"));
  ASSERT_OK_AND_ASSIGN(std::string pong, client.ReadLine());
  EXPECT_EQ(pong, "OK pong");
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT huge"));
  ASSERT_OK_AND_ASSIGN(std::string missing, client.ReadLine());
  EXPECT_TRUE(StartsWith(missing, "ERR ENOTFOUND ")) << missing;
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT s1"));
  ASSERT_OK_AND_ASSIGN(std::string snapshot, client.ReadLine());
  EXPECT_TRUE(StartsWith(snapshot, "OK stream=s1 position=3 ")) << snapshot;
}

TEST_F(ServerPersistTest, JournalFailureYieldsEpersistAndNoStateChange) {
  options_.fsync_policy = persist::FsyncPolicy::kAlways;
  Server server(TestCorpus(), options_);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  ASSERT_OK(client.SendLine(
      "STREAM.CREATE s1 probs=0.5;0.5 alpha=0.0001 max_window=32"));
  ASSERT_OK_AND_ASSIGN(std::string created, client.ReadLine());
  EXPECT_EQ(created, "OK created s1");

  // Fault the journal's NEXT fsync. An fsync fault (not a write fault)
  // because client sockets share the RawWrite shim but never fsync.
  ASSERT_OK(fault::Arm("fsync:1:EIO"));
  ASSERT_OK(client.SendLine("STREAM.APPEND s1 0101"));
  ASSERT_OK_AND_ASSIGN(std::string refused, client.ReadLine());
  fault::Disarm();
  EXPECT_TRUE(StartsWith(refused, "ERR EPERSIST ")) << refused;
  EXPECT_GE(server.stats().persist_errors, 1);

  // The refused append was never applied: position is still 0.
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT s1"));
  ASSERT_OK_AND_ASSIGN(std::string snapshot, client.ReadLine());
  EXPECT_TRUE(StartsWith(snapshot, "OK stream=s1 position=0 ")) << snapshot;

  // STATS reports the persist failure on the wire too.
  ASSERT_OK(client.SendLine("STATS"));
  ASSERT_OK_AND_ASSIGN(std::string stats, client.ReadLine());
  EXPECT_NE(stats.find(" persist_errors="), std::string::npos) << stats;
}

TEST_F(ServerPersistTest, CorruptSnapshotFailsStartupByName) {
  {
    Server server(TestCorpus(), options_);
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
    ASSERT_OK(client.SendLine(
        "STREAM.CREATE s1 probs=0.5;0.5 alpha=0.0001 max_window=32"));
    ASSERT_OK_AND_ASSIGN(std::string created, client.ReadLine());
    EXPECT_EQ(created, "OK created s1");
    server.RequestDrain();
    server.Join();
  }
  {
    int fd = ::open(persist::StateStore::SnapshotPath(dir_).c_str(),
                    O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_OK(WriteFdAll(fd, "this was never a snapshot"));
    ::close(fd);
  }
  Server server(TestCorpus(), options_);
  Status status = server.Start();
  // A corrupt snapshot must be a named refusal to start — silently
  // serving empty state would invent data loss.
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerPersistTest, ClosedStreamsStayClosedAcrossRestart) {
  {
    Server server(TestCorpus(), options_);
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
    ASSERT_OK(client.SendLine(
        "STREAM.CREATE gone probs=0.5;0.5 alpha=0.0001 max_window=32"));
    ASSERT_OK_AND_ASSIGN(std::string created, client.ReadLine());
    EXPECT_EQ(created, "OK created gone");
    ASSERT_OK(client.SendLine("STREAM.CLOSE gone"));
    ASSERT_OK_AND_ASSIGN(std::string closed, client.ReadLine());
    EXPECT_EQ(closed, "OK closed gone");
  }  // The destructor drains: the snapshot records the stream as gone.

  Server server(TestCorpus(), options_);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT gone"));
  ASSERT_OK_AND_ASSIGN(std::string reply, client.ReadLine());
  EXPECT_TRUE(StartsWith(reply, "ERR ENOTFOUND ")) << reply;
}

}  // namespace
}  // namespace server
}  // namespace sigsub
