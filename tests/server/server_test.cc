#include "server/server.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "api/serde.h"
#include "common/str_util.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "testing/test_util.h"

namespace sigsub {
namespace server {
namespace {

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

engine::Corpus TestCorpus() {
  std::vector<std::string> records;
  for (int i = 0; i < 8; ++i) {
    // Each record gets a planted run so MSS answers are non-trivial.
    std::string record;
    for (int j = 0; j < 24; ++j) record += (j % 2 == 0) ? 'a' : 'b';
    record += std::string(static_cast<size_t>(4 + i), 'a');
    records.push_back(std::move(record));
  }
  auto corpus = engine::Corpus::FromStrings(records, "ab");
  EXPECT_TRUE(corpus.ok()) << corpus.status().message();
  return *std::move(corpus);
}

/// Reusable executor gate: while closed, the server's executor hook
/// blocks before popping any admitted work, so queue-depth and in-flight
/// saturation are deterministic facts, not race outcomes.
class Gate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

  /// Reopens the gate on every exit path: a failed ASSERT between Close()
  /// and Open() must not leave the server's executor (and so its
  /// destructor's Join) blocked forever.
  class OpenOnExit {
   public:
    explicit OpenOnExit(Gate& gate) : gate_(gate) {}
    ~OpenOnExit() { gate_.Open(); }

   private:
    Gate& gate_;
  };

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
};

Result<LineClient> ConnectTo(const Server& server) {
  return LineClient::Connect("127.0.0.1", server.port(), 5000);
}

TEST(ServerTest, QueryReplyMatchesLocalEngineByte4Byte) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  const std::string spec_text = "topt:seq=2,t=3";
  ASSERT_OK(client.SendLine(StrCat("QUERY ", spec_text)));
  ASSERT_OK_AND_ASSIGN(std::string reply, client.ReadLine());

  // A fresh local engine over the same corpus must serialize to the very
  // same bytes — the wire format cannot drift from the api layer.
  engine::Engine local;
  ASSERT_OK_AND_ASSIGN(api::QuerySpec spec, api::ParseQuery(spec_text));
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> results,
                       local.ExecuteQueries(TestCorpus(), {spec}));
  EXPECT_EQ(reply,
            StrCat("OK ", protocol::FormatQueryResult(results[0], 64)));
}

// The block end end + block_size − 1 once overflowed for a block_size
// near INT64_MAX and crashed the daemon. The query must answer like the
// local engine, and the server must keep serving.
TEST(ServerTest, BlockedWithMaximalBlockSizeAnswersAndServes) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  const std::string spec_text = "blocked:seq=3,block_size=9223372036854775807";
  ASSERT_OK(client.SendLine(StrCat("QUERY ", spec_text)));
  ASSERT_OK_AND_ASSIGN(std::string reply, client.ReadLine());
  EXPECT_TRUE(StartsWith(reply, "OK kind=blocked seq=3 ")) << reply;

  engine::Engine local;
  ASSERT_OK_AND_ASSIGN(api::QuerySpec spec, api::ParseQuery(spec_text));
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> results,
                       local.ExecuteQueries(TestCorpus(), {spec}));
  EXPECT_EQ(reply,
            StrCat("OK ", protocol::FormatQueryResult(results[0], 64)));

  ASSERT_OK_AND_ASSIGN(LineClient second, ConnectTo(server));
  ASSERT_OK(second.SendLine("PING"));
  ASSERT_OK_AND_ASSIGN(std::string pong, second.ReadLine());
  EXPECT_EQ(pong, "OK pong");
}

TEST(ServerTest, SubstringsQueryOverTheWire) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  const std::string spec_text =
      "substrings:seq=1,top=4,min_length=2,min_count=2";
  ASSERT_OK(client.SendLine(StrCat("QUERY ", spec_text)));
  ASSERT_OK_AND_ASSIGN(std::string reply, client.ReadLine());
  EXPECT_TRUE(StartsWith(reply, "OK kind=substrings seq=1 ")) << reply;

  engine::Engine local;
  ASSERT_OK_AND_ASSIGN(api::QuerySpec spec, api::ParseQuery(spec_text));
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> results,
                       local.ExecuteQueries(TestCorpus(), {spec}));
  EXPECT_EQ(reply,
            StrCat("OK ", protocol::FormatQueryResult(results[0], 64)));

  // A repeat is served from the daemon's result cache: same rows, cache=1.
  ASSERT_OK(client.SendLine(StrCat("QUERY ", spec_text)));
  ASSERT_OK_AND_ASSIGN(std::string warm, client.ReadLine());
  results[0].cache_hit = true;
  EXPECT_EQ(warm,
            StrCat("OK ", protocol::FormatQueryResult(results[0], 64)));
}

TEST(ServerTest, PipelinedRepliesPreserveRequestOrder) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(client.SendLine(StrCat("QUERY mss:seq=", i)));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string reply, client.ReadLine());
    EXPECT_TRUE(StartsWith(reply, StrCat("OK kind=mss seq=", i, " ")))
        << reply;
  }
}

TEST(ServerTest, ControlCommandsAndQuit) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  ASSERT_OK(client.SendLine("PING"));
  ASSERT_OK_AND_ASSIGN(std::string pong, client.ReadLine());
  EXPECT_EQ(pong, "OK pong");

  ASSERT_OK(client.SendLine("HEALTH"));
  ASSERT_OK_AND_ASSIGN(std::string health, client.ReadLine());
  EXPECT_TRUE(StartsWith(health, "OK status=serving uptime_ms=")) << health;

  ASSERT_OK(client.SendLine("STATS"));
  ASSERT_OK_AND_ASSIGN(std::string stats, client.ReadLine());
  EXPECT_TRUE(StartsWith(stats, "OK uptime_ms=")) << stats;
  // The engine stats ride along on the same line (satellite contract:
  // one snapshot struct feeds both STATS and the CLI).
  EXPECT_NE(stats.find(" queries="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" cache_hits="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" streams_open="), std::string::npos) << stats;

  ASSERT_OK(client.SendLine("QUIT"));
  ASSERT_OK_AND_ASSIGN(std::string bye, client.ReadLine());
  EXPECT_EQ(bye, "OK bye");
  EXPECT_FALSE(client.ReadLine(2000).ok());  // Server closed after flush.
}

TEST(ServerTest, ProtocolAndValidationErrors) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  ASSERT_OK(client.SendLine("FROB everything"));
  ASSERT_OK_AND_ASSIGN(std::string proto, client.ReadLine());
  EXPECT_TRUE(StartsWith(proto, "ERR EPROTO ")) << proto;

  // Parses fine, fails engine validation (sequence out of range).
  ASSERT_OK(client.SendLine("QUERY mss:seq=99"));
  ASSERT_OK_AND_ASSIGN(std::string invalid, client.ReadLine());
  EXPECT_TRUE(StartsWith(invalid, "ERR EINVALID ")) << invalid;

  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT nope"));
  ASSERT_OK_AND_ASSIGN(std::string missing, client.ReadLine());
  EXPECT_TRUE(StartsWith(missing, "ERR ENOTFOUND ")) << missing;

  ASSERT_OK(client.SendLine("SUBSCRIBE nope"));
  ASSERT_OK_AND_ASSIGN(std::string no_sub, client.ReadLine());
  EXPECT_TRUE(StartsWith(no_sub, "ERR ENOTFOUND ")) << no_sub;

  EXPECT_GE(server.stats().protocol_errors, 1);
}

TEST(ServerTest, TopTAboveTheCapIsInvalid) {
  // One wire QUERY with a huge t would otherwise scan and keep every
  // substring of the record.
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
  ASSERT_OK(client.SendLine("QUERY topt:seq=0,t=1048577"));
  ASSERT_OK_AND_ASSIGN(std::string bad, client.ReadLine());
  EXPECT_TRUE(StartsWith(bad, "ERR EINVALID ")) << bad;
  EXPECT_NE(bad.find("field t must be in [1, 1048576]"), std::string::npos)
      << bad;
  ASSERT_OK(client.SendLine("QUERY topt:seq=0,t=3"));
  ASSERT_OK_AND_ASSIGN(std::string good, client.ReadLine());
  EXPECT_TRUE(StartsWith(good, "OK kind=topt seq=0 ")) << good;
}

/// The integer after " <key>=" in a STATS line, or -1 when absent.
int64_t StatValue(const std::string& line, const std::string& key) {
  const size_t at = line.find(StrCat(" ", key, "="));
  if (at == std::string::npos) return -1;
  return std::stoll(line.substr(at + key.size() + 2));
}

TEST(ServerTest, BadQueryInSliceDoesNotFailNeighbors) {
  // Three queries land in one executor slice. They run as one engine
  // batch in which only the invalid one fails: each valid query runs
  // once, and the slice counts as one batch.
  Gate gate;
  ServerOptions options;
  options.executor_hook = [&gate] { gate.Wait(); };
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  ASSERT_OK(client.SendLine("STATS"));
  ASSERT_OK_AND_ASSIGN(std::string before, client.ReadLine());

  gate.Close();
  Gate::OpenOnExit reopen(gate);
  const int64_t admitted = server.stats().requests_admitted;
  ASSERT_OK(client.SendLine("QUERY mss:seq=0"));
  ASSERT_OK(client.SendLine("QUERY mss:seq=99"));
  ASSERT_OK(client.SendLine("QUERY topt:seq=1,t=3"));
  // Open the gate only once all three wait in the queue, so the executor
  // takes them as one slice.
  for (int spin = 0; spin < 5000 && server.stats().requests_admitted <
                                        admitted + 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().requests_admitted, admitted + 3);
  gate.Open();

  ASSERT_OK_AND_ASSIGN(std::string good, client.ReadLine());
  EXPECT_TRUE(StartsWith(good, "OK kind=mss seq=0 ")) << good;
  ASSERT_OK_AND_ASSIGN(std::string bad, client.ReadLine());
  EXPECT_TRUE(StartsWith(bad, "ERR EINVALID ")) << bad;
  ASSERT_OK_AND_ASSIGN(std::string ranked, client.ReadLine());
  EXPECT_TRUE(StartsWith(ranked, "OK kind=topt seq=1 ")) << ranked;

  ASSERT_OK(client.SendLine("STATS"));
  ASSERT_OK_AND_ASSIGN(std::string after, client.ReadLine());
  EXPECT_EQ(StatValue(after, "batches"), StatValue(before, "batches") + 1)
      << before << "\n" << after;
  EXPECT_EQ(StatValue(after, "queries"), StatValue(before, "queries") + 2)
      << before << "\n" << after;

  // The same invalid query alone gets the same reply text: each QUERY
  // line is its client's batch of one, wherever it sits in a slice.
  ASSERT_OK(client.SendLine("QUERY mss:seq=99"));
  ASSERT_OK_AND_ASSIGN(std::string alone, client.ReadLine());
  EXPECT_EQ(alone, bad);
  EXPECT_TRUE(StartsWith(bad, "ERR EINVALID query 0 (mss): field seq"))
      << bad;
}

TEST(ServerTest, StreamLifecycleWithSubscriberPushes) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient producer, ConnectTo(server));
  ASSERT_OK_AND_ASSIGN(LineClient watcher, ConnectTo(server));

  ASSERT_OK(producer.SendLine(
      "STREAM.CREATE s1 probs=0.9;0.1 alpha=0.0001 max_window=64"));
  ASSERT_OK_AND_ASSIGN(std::string created, producer.ReadLine());
  EXPECT_EQ(created, "OK created s1");

  ASSERT_OK(watcher.SendLine("SUBSCRIBE s1"));
  ASSERT_OK_AND_ASSIGN(std::string subscribed, watcher.ReadLine());
  EXPECT_EQ(subscribed, "OK subscribed s1");

  // 512 symbols of the rare letter against a 0.9/0.1 null: the windowed
  // X² is enormous, so calibrated alarms are certain.
  ASSERT_OK(producer.SendLine(
      StrCat("STREAM.APPEND s1 ", std::string(512, '1'))));
  ASSERT_OK_AND_ASSIGN(std::string appended, producer.ReadLine());
  ASSERT_TRUE(StartsWith(appended, "OK alarms=")) << appended;
  const int64_t alarms = std::stoll(appended.substr(10));
  ASSERT_GT(alarms, 0);

  // The subscriber receives exactly one ALARM push per raised alarm.
  for (int64_t i = 0; i < alarms; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string push, watcher.ReadLine());
    EXPECT_TRUE(StartsWith(push, "ALARM stream=s1 end=")) << push;
  }

  ASSERT_OK(producer.SendLine("STREAM.SNAPSHOT s1"));
  ASSERT_OK_AND_ASSIGN(std::string snapshot, producer.ReadLine());
  EXPECT_TRUE(StartsWith(
      snapshot, StrCat("OK stream=s1 position=512 alarms=", alarms)))
      << snapshot;

  // The producer is not subscribed: no pushes on its connection; the
  // next reply is the close acknowledgement.
  ASSERT_OK(producer.SendLine("STREAM.CLOSE s1"));
  ASSERT_OK_AND_ASSIGN(std::string closed, producer.ReadLine());
  EXPECT_EQ(closed, "OK closed s1");

  EXPECT_EQ(server.stats().alarms_pushed, alarms);
}

TEST(ServerTest, HostileStreamWindowIsInvalidAndTheDaemonServes) {
  // A 2^36-symbol window would ask for a 64 GiB ring; the detector
  // refuses it by name before allocating anything.
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
  ASSERT_OK(client.SendLine(
      "STREAM.CREATE s probs=0.5;0.5 max_window=68719476736"));
  ASSERT_OK_AND_ASSIGN(std::string refused, client.ReadLine());
  EXPECT_TRUE(StartsWith(refused, "ERR EINVALID ")) << refused;
  EXPECT_NE(refused.find("max_window must be in [1, 16777216]"),
            std::string::npos)
      << refused;
  ASSERT_OK(client.SendLine("PING"));
  ASSERT_OK_AND_ASSIGN(std::string pong, client.ReadLine());
  EXPECT_EQ(pong, "OK pong");
  ASSERT_OK(client.SendLine("STREAM.SNAPSHOT s"));
  ASSERT_OK_AND_ASSIGN(std::string missing, client.ReadLine());
  EXPECT_TRUE(StartsWith(missing, "ERR ENOTFOUND ")) << missing;
}

TEST(ServerTest, ShedsLoadWithBusyWhenAdmissionQueueFull) {
  Gate gate;
  ServerOptions options;
  options.max_queue = 1;
  options.executor_hook = [&gate] { gate.Wait(); };
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  gate.Close();
  Gate::OpenOnExit reopen(gate);
  // First query fills the queue (the gated executor cannot pop it);
  // the second is shed with the distinct EBUSY code and never executes.
  ASSERT_OK(client.SendLine("QUERY mss:seq=0"));
  ASSERT_OK(client.SendLine("QUERY mss:seq=1"));
  ASSERT_OK_AND_ASSIGN(std::string shed, client.ReadLine());
  EXPECT_TRUE(StartsWith(shed, "ERR EBUSY ")) << shed;

  gate.Open();
  ASSERT_OK_AND_ASSIGN(std::string served, client.ReadLine());
  EXPECT_TRUE(StartsWith(served, "OK kind=mss seq=0 ")) << served;

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_busy, 1);
  EXPECT_EQ(stats.requests_admitted, 1);
}

TEST(ServerTest, EnforcesPerClientInflightQuota) {
  Gate gate;
  ServerOptions options;
  options.max_inflight_per_client = 1;
  options.executor_hook = [&gate] { gate.Wait(); };
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient greedy, ConnectTo(server));
  ASSERT_OK_AND_ASSIGN(LineClient modest, ConnectTo(server));

  gate.Close();
  Gate::OpenOnExit reopen(gate);
  ASSERT_OK(greedy.SendLine("QUERY mss:seq=0"));
  ASSERT_OK(greedy.SendLine("QUERY mss:seq=1"));
  // The quota is per connection: the refusal is immediate and names
  // EQUOTA, and a different client is unaffected.
  ASSERT_OK_AND_ASSIGN(std::string quota, greedy.ReadLine());
  EXPECT_TRUE(StartsWith(quota, "ERR EQUOTA ")) << quota;
  ASSERT_OK(modest.SendLine("QUERY mss:seq=2"));

  gate.Open();
  ASSERT_OK_AND_ASSIGN(std::string greedy_reply, greedy.ReadLine());
  EXPECT_TRUE(StartsWith(greedy_reply, "OK kind=mss seq=0 "))
      << greedy_reply;
  ASSERT_OK_AND_ASSIGN(std::string modest_reply, modest.ReadLine());
  EXPECT_TRUE(StartsWith(modest_reply, "OK kind=mss seq=2 "))
      << modest_reply;
  EXPECT_EQ(server.stats().shed_quota, 1);
}

TEST(ServerTest, IdleConnectionsTimeOutWithExplicitCode) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  ASSERT_OK_AND_ASSIGN(std::string timeout, client.ReadLine(5000));
  EXPECT_TRUE(StartsWith(timeout, "ERR ETIMEOUT ")) << timeout;
  EXPECT_FALSE(client.ReadLine(2000).ok());  // Closed after the notice.
  EXPECT_EQ(server.stats().idle_timeouts, 1);
}

TEST(ServerTest, OverlongLineGetsTooBigThenClose) {
  ServerOptions options;
  options.max_line_bytes = 64;
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));

  ASSERT_OK(client.SendLine(std::string(256, 'q')));
  ASSERT_OK_AND_ASSIGN(std::string too_big, client.ReadLine());
  EXPECT_TRUE(StartsWith(too_big, "ERR ETOOBIG ")) << too_big;
  EXPECT_FALSE(client.ReadLine(2000).ok());
}

TEST(ServerTest, ConnectionCapRefusesWithBusy) {
  ServerOptions options;
  options.max_connections = 1;
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient first, ConnectTo(server));
  ASSERT_OK(first.SendLine("PING"));
  ASSERT_OK_AND_ASSIGN(std::string pong, first.ReadLine());
  EXPECT_EQ(pong, "OK pong");

  ASSERT_OK_AND_ASSIGN(LineClient second, ConnectTo(server));
  ASSERT_OK_AND_ASSIGN(std::string refused, second.ReadLine());
  EXPECT_EQ(refused, "ERR EBUSY server full");
  EXPECT_FALSE(second.ReadLine(2000).ok());

  // The first connection is unaffected by the refusal next door.
  ASSERT_OK(first.SendLine("PING"));
  ASSERT_OK_AND_ASSIGN(std::string still, first.ReadLine());
  EXPECT_EQ(still, "OK pong");
}

/// The acceptance scenario from the issue: >= 8 concurrent clients mixing
/// one-shot queries and stream subscriptions, a SIGTERM-style drain
/// arriving with everything in flight, zero admitted requests dropped,
/// and post-drain work shed with EDRAIN.
TEST(ServerTest, GracefulDrainLosesNothingAndShedsNewWork) {
  Gate gate;
  ServerOptions options;
  options.max_queue = 512;
  options.max_inflight_per_client = 64;
  options.drain_timeout_ms = 30000;  // The test controls drain pacing.
  options.executor_hook = [&gate] { gate.Wait(); };
  Server server(TestCorpus(), options);
  ASSERT_OK(server.Start());

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 8;

  // A watcher subscribes before the storm (stream setup runs with the
  // gate open, so its replies arrive immediately).
  ASSERT_OK_AND_ASSIGN(LineClient watcher, ConnectTo(server));
  ASSERT_OK(watcher.SendLine(
      "STREAM.CREATE burst probs=0.9;0.1 alpha=0.0001 max_window=64"));
  ASSERT_OK_AND_ASSIGN(std::string created, watcher.ReadLine());
  EXPECT_EQ(created, "OK created burst");
  ASSERT_OK(watcher.SendLine("SUBSCRIBE burst"));
  ASSERT_OK_AND_ASSIGN(std::string subscribed, watcher.ReadLine());
  EXPECT_EQ(subscribed, "OK subscribed burst");

  std::vector<LineClient> clients;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_OK_AND_ASSIGN(LineClient client, ConnectTo(server));
    clients.push_back(std::move(client));
  }

  // STREAM.CREATE above was itself an admitted engine-bound request.
  const int64_t admitted_before = server.stats().requests_admitted;

  // The drain prober must already be connected: draining closes the
  // listener, so EDRAIN is only observable on existing connections.
  ASSERT_OK_AND_ASSIGN(LineClient late, ConnectTo(server));

  // Freeze the executor, then pipeline the full mixed workload: every
  // request below is ADMITTED (the queue is deep enough) while none can
  // execute yet.
  gate.Close();
  Gate::OpenOnExit reopen(gate);
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < kQueriesPerClient; ++q) {
      if (q == kQueriesPerClient - 1 && c % 2 == 1) {
        // Odd clients end with a stream append instead of a query.
        ASSERT_OK(clients[c].SendLine(
            StrCat("STREAM.APPEND burst ", std::string(64, '1'))));
      } else {
        ASSERT_OK(clients[c].SendLine(StrCat("QUERY mss:seq=", q % 8)));
      }
    }
  }
  // Give the I/O thread a moment to admit everything before draining.
  const int64_t expected =
      admitted_before + static_cast<int64_t>(kClients) * kQueriesPerClient;
  for (int spin = 0;
       spin < 500 && server.stats().requests_admitted < expected; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.stats().requests_admitted, expected);

  // SIGTERM arrives (the CLI handler calls exactly this).
  server.RequestDrain();

  // New work is refused with the distinct drain code...
  ASSERT_OK(late.SendLine("QUERY mss:seq=0"));
  ASSERT_OK_AND_ASSIGN(std::string drain_shed, late.ReadLine());
  EXPECT_TRUE(StartsWith(drain_shed, "ERR EDRAIN ")) << drain_shed;

  // ...then the backlog executes to completion: every admitted request
  // gets its reply — zero drops across the drain.
  gate.Open();
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < kQueriesPerClient; ++q) {
      ASSERT_OK_AND_ASSIGN(std::string reply, clients[c].ReadLine(15000));
      if (q == kQueriesPerClient - 1 && c % 2 == 1) {
        EXPECT_TRUE(StartsWith(reply, "OK alarms=")) << reply;
      } else {
        EXPECT_TRUE(StartsWith(reply, StrCat("OK kind=mss seq=", q % 8)))
            << reply;
      }
    }
  }

  server.Join();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_admitted, expected);
  EXPECT_GE(stats.shed_drain, 1);
  EXPECT_EQ(stats.shed_busy, 0);
  EXPECT_EQ(stats.shed_quota, 0);

  // Post-drain the sockets are closed (after their buffers flushed).
  EXPECT_FALSE(clients[0].ReadLine(2000).ok());
}

TEST(ServerTest, QueriesFromConcurrentClientsShareTheCache) {
  Server server(TestCorpus(), ServerOptions{});
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(LineClient first, ConnectTo(server));
  ASSERT_OK_AND_ASSIGN(LineClient second, ConnectTo(server));

  ASSERT_OK(first.SendLine("QUERY mss:seq=4"));
  ASSERT_OK_AND_ASSIGN(std::string cold, first.ReadLine());
  EXPECT_TRUE(StartsWith(cold, "OK kind=mss seq=4 cache=0 ")) << cold;

  // The daemon's engine is shared: another connection's identical query
  // is a cache hit with the same payload bytes after the cache flag.
  ASSERT_OK(second.SendLine("QUERY mss:seq=4"));
  ASSERT_OK_AND_ASSIGN(std::string warm, second.ReadLine());
  EXPECT_TRUE(StartsWith(warm, "OK kind=mss seq=4 cache=1 ")) << warm;
  EXPECT_EQ(cold.substr(cold.find("matches=")),
            warm.substr(warm.find("matches=")));
}

}  // namespace
}  // namespace server
}  // namespace sigsub
