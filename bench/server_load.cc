// sigsubd under load: loopback protocol round trips against the daemon.
//
// Workload: a binary corpus with planted runs served by a Server on an
// ephemeral loopback port (one engine thread, so the numbers isolate
// protocol + batching overhead, not kernel parallelism). Three phases
// over the same mixed query list (mss / topt / threshold round-robin
// across records):
//
//   sync       — one client, one request in flight: send, wait, read.
//                Per-request latencies give qps, p50 and p99.
//   pipelined  — the same requests sent in windows of 32 without waiting;
//                the I/O thread admits the window and the executor runs
//                each slice as ONE Engine::ExecuteQueries batch. The
//                tracked metric is the speedup over sync: it measures the
//                admission-queue + batch-execution design, and holds on a
//                single core because it removes per-request wait states,
//                not because of parallelism.
//   concurrent — 8 threaded clients (7 query clients + 1 stream client
//                appending chunks and raising calibrated alarms) hammer
//                the daemon at once; the gate is zero malformed or error
//                replies — admission control may only shed with its
//                distinct codes, and none should fire at these depths.
//
// A final drain pass pipelines a burst from 4 clients, calls
// RequestDrain() mid-flight, and gates that every admitted request still
// got its reply (the zero-dropped-in-flight drain contract), with
// post-drain sends refused.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"

using namespace sigsub;

namespace {

engine::Corpus MakeCorpus(int records, int length) {
  seq::Rng rng(20120807);
  std::vector<std::string> texts;
  for (int i = 0; i < records; ++i) {
    seq::Sequence s = seq::GenerateNull(2, length, rng);
    std::string text = s.ToString(seq::Alphabet::Binary());
    text.replace(static_cast<size_t>(50 + 13 * (i % 40)), 30,
                 std::string(30, '1'));
    texts.push_back(std::move(text));
  }
  return engine::Corpus::FromStrings(texts, "01").value();
}

/// The mixed request list: three kernels round-robin over the records.
std::vector<std::string> MakeRequests(int count, int records) {
  std::vector<std::string> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int seq = i % records;
    switch (i % 3) {
      case 0:
        requests.push_back(StrCat("QUERY mss:seq=", seq));
        break;
      case 1:
        requests.push_back(StrCat("QUERY topt:seq=", seq, ",t=5"));
        break;
      default:
        requests.push_back(StrCat("QUERY threshold:seq=", seq, ",alpha0=20"));
        break;
    }
  }
  return requests;
}

bool IsOk(const std::string& reply) { return reply.rfind("OK ", 0) == 0; }

}  // namespace

int main() {
  bench::PrintHeader(
      "sigsubd server load (new subsystem; no paper figure)",
      "loopback protocol round trips: sync vs pipelined vs 8 concurrent "
      "clients, plus the graceful-drain zero-drop gate");
  bench::JsonBench json("server");

  const bool fast = bench::FastMode();
  const int kRecords = fast ? 8 : 32;
  const int kLength = fast ? 1000 : 2000;
  const int kRequests = fast ? 240 : 1920;
  const int kWindow = 32;

  engine::Corpus corpus = MakeCorpus(kRecords, kLength);
  server::ServerOptions options;
  options.max_queue = 1024;
  options.max_inflight_per_client = 64;
  options.drain_timeout_ms = 60000;
  server::Server daemon(corpus, options);
  if (!daemon.Start().ok()) {
    std::printf("FATAL: server failed to start\n");
    return 1;
  }
  const std::vector<std::string> requests = MakeRequests(kRequests, kRecords);

  auto connect = [&] {
    return server::LineClient::Connect("127.0.0.1", daemon.port(), 5000);
  };

  // --- sync: one request in flight, per-request latencies. -------------
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  bool sync_all_ok = true;
  double sync_ms = 0.0;
  {
    auto client = connect().value();
    sync_ms = bench::TimeMs([&] {
      for (const std::string& request : requests) {
        const double ms = bench::TimeMs([&] {
          (void)client.SendLine(request);
          auto reply = client.ReadLine(10000);
          sync_all_ok = sync_all_ok && reply.ok() && IsOk(*reply);
        });
        latencies.push_back(ms);
      }
    });
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = latencies[latencies.size() / 2];
  const double p99 = latencies[latencies.size() * 99 / 100];
  const double sync_qps =
      static_cast<double>(requests.size()) / (sync_ms / 1000.0);

  // --- pipelined: windows of kWindow in flight. ------------------------
  bool pipe_all_ok = true;
  double pipe_ms = 0.0;
  {
    auto client = connect().value();
    pipe_ms = bench::TimeMs([&] {
      for (size_t base = 0; base < requests.size();
           base += static_cast<size_t>(kWindow)) {
        const size_t end =
            std::min(requests.size(), base + static_cast<size_t>(kWindow));
        for (size_t i = base; i < end; ++i) {
          (void)client.SendLine(requests[i]);
        }
        for (size_t i = base; i < end; ++i) {
          auto reply = client.ReadLine(10000);
          pipe_all_ok = pipe_all_ok && reply.ok() && IsOk(*reply);
        }
      }
    });
  }
  const double pipe_qps =
      static_cast<double>(requests.size()) / (pipe_ms / 1000.0);
  const double pipeline_speedup = sync_ms / pipe_ms;

  // --- concurrent: 7 query clients + 1 stream client. ------------------
  const int kClients = 8;
  const int kPerClient = fast ? 30 : 120;
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> replies{0};
  double concurrent_ms = bench::TimeMs([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client_or = connect();
        if (!client_or.ok()) {
          errors.fetch_add(1);
          return;
        }
        auto client = std::move(client_or).value();
        if (c == kClients - 1) {
          // The stream client: create, append null chunks, snapshot.
          const std::string name = "bench";
          (void)client.SendLine(StrCat("STREAM.CREATE ", name,
                                       " probs=0.5;0.5 alpha=0.00001"));
          auto created = client.ReadLine(10000);
          if (!created.ok() || !IsOk(*created)) {
            errors.fetch_add(1);
            return;
          }
          replies.fetch_add(1);
          seq::Rng rng(7);
          for (int i = 0; i < kPerClient; ++i) {
            std::string chunk;
            for (int j = 0; j < 256; ++j) {
              chunk += rng.NextDouble() < 0.5 ? '0' : '1';
            }
            (void)client.SendLine(StrCat("STREAM.APPEND ", name, " ", chunk));
            auto reply = client.ReadLine(10000);
            if (reply.ok() && IsOk(*reply)) {
              replies.fetch_add(1);
            } else {
              errors.fetch_add(1);
            }
          }
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          (void)client.SendLine(
              requests[static_cast<size_t>(c * kPerClient + i) %
                       requests.size()]);
          auto reply = client.ReadLine(10000);
          if (reply.ok() && IsOk(*reply)) {
            replies.fetch_add(1);
          } else {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  });
  const int64_t expected_replies = kClients * kPerClient + 1;
  const bool concurrent_ok =
      errors.load() == 0 && replies.load() == expected_replies;

  // --- drain: burst in flight, RequestDrain, zero drops. ---------------
  const int kDrainClients = 4;
  const int kDrainBurst = 32;
  std::vector<server::LineClient> drain_clients;
  bool drain_ok = true;
  for (int c = 0; c < kDrainClients; ++c) {
    auto client = connect();
    if (!client.ok()) {
      drain_ok = false;
      break;
    }
    drain_clients.push_back(std::move(client).value());
  }
  const int64_t admitted_before = daemon.stats().requests_admitted;
  int64_t drain_ok_replies = 0;
  int64_t drain_shed_replies = 0;
  if (drain_ok) {
    for (auto& client : drain_clients) {
      for (int i = 0; i < kDrainBurst; ++i) {
        (void)client.SendLine(requests[static_cast<size_t>(i)]);
      }
    }
    daemon.RequestDrain();  // Mid-flight, like a SIGTERM.
    // The zero-drop contract: every request written before the signal
    // gets a well-formed reply — OK if it was admitted, ERR EDRAIN if the
    // drain beat it to admission. Silent drops and connection resets are
    // the failure mode this gate exists to catch.
    for (auto& client : drain_clients) {
      for (int i = 0; i < kDrainBurst; ++i) {
        auto reply = client.ReadLine(30000);
        if (!reply.ok()) {
          drain_ok = false;
        } else if (IsOk(*reply)) {
          ++drain_ok_replies;
        } else if (reply->rfind("ERR EDRAIN ", 0) == 0) {
          ++drain_shed_replies;
        } else {
          drain_ok = false;
        }
      }
    }
  }
  daemon.Join();
  server::ServerStats stats = daemon.stats();
  // Replies must reconcile exactly with the server's own accounting.
  drain_ok = drain_ok &&
             drain_ok_replies == stats.requests_admitted - admitted_before &&
             drain_shed_replies == stats.shed_drain;

  // --- restart recovery: journal replay throughput after a crash. ------
  // Builds a journal-only state directory (what a SIGKILL leaves behind:
  // no fresh snapshot) holding kStreams live streams with appended
  // history, then times StateStore::Open replaying it into a fresh
  // StreamManager. The gate is bit-identical recovery against the
  // manager that produced the journal.
  const int kStreams = fast ? 16 : 64;
  const int kChunksPerStream = 4;
  const int kChunkSymbols = 256;
  double recovery_ms = 0.0;
  bool recovery_identical = false;
  int64_t recovered_records = 0;
  {
    char tmpl[] = "/tmp/sigsub_bench_recovery_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::printf("FATAL: mkdtemp failed\n");
      return 1;
    }
    const std::string state_dir = tmpl;
    engine::StreamManager original;
    {
      persist::RecoveryStats cold;
      auto store = persist::StateStore::Open(
          state_dir, {.fsync_policy = persist::FsyncPolicy::kNone},
          &original, nullptr, &cold);
      if (!store.ok()) {
        std::printf("FATAL: state store open failed\n");
        return 1;
      }
      core::StreamingDetector::Options detector_options;
      detector_options.max_window = 128;
      detector_options.alpha = 1e-5;
      seq::Rng rng(11);
      for (int s = 0; s < kStreams; ++s) {
        const std::string name = StrCat("s", s);
        (void)store->RecordCreate(name, {0.5, 0.5}, detector_options);
        (void)original.CreateStream(name, {0.5, 0.5}, detector_options);
        for (int c = 0; c < kChunksPerStream; ++c) {
          std::vector<uint8_t> chunk;
          chunk.reserve(kChunkSymbols);
          for (int j = 0; j < kChunkSymbols; ++j) {
            chunk.push_back(rng.NextDouble() < 0.5 ? 0 : 1);
          }
          (void)store->RecordAppend(name, chunk);
          (void)original.Append(name, chunk);
        }
      }
    }

    engine::StreamManager recovered;
    persist::RecoveryStats recovery;
    recovery_ms = bench::TimeMs([&] {
      auto store = persist::StateStore::Open(
          state_dir, {.fsync_policy = persist::FsyncPolicy::kNone},
          &recovered, nullptr, &recovery);
      if (!store.ok()) recovery_ms = -1.0;
    });
    recovered_records = recovery.journal_records_applied;

    // Bit-identical: every exported field of every stream must match.
    auto exported = original.ExportStreams();
    auto replayed = recovered.ExportStreams();
    recovery_identical =
        recovery_ms >= 0.0 && replayed.size() == exported.size();
    for (size_t i = 0; recovery_identical && i < exported.size(); ++i) {
      recovery_identical =
          replayed[i].name == exported[i].name &&
          replayed[i].probs == exported[i].probs &&
          replayed[i].state.position == exported[i].state.position &&
          replayed[i].state.counts == exported[i].state.counts &&
          replayed[i].state.recent == exported[i].state.recent &&
          replayed[i].state.in_alarm == exported[i].state.in_alarm &&
          replayed[i].state.alarms_raised == exported[i].state.alarms_raised;
    }

    ::unlink(persist::StateStore::JournalPath(state_dir).c_str());
    ::unlink(persist::StateStore::SnapshotPath(state_dir).c_str());
    ::unlink(persist::StateStore::CachePath(state_dir).c_str());
    ::rmdir(state_dir.c_str());
  }
  const double recovery_streams_per_sec =
      recovery_ms > 0.0
          ? static_cast<double>(kStreams) / (recovery_ms / 1000.0)
          : 0.0;

  io::TableWriter table({"phase", "time", "qps", "notes"});
  table.AddRow({"sync", bench::FormatMs(sync_ms),
                StrFormat("%.0f", sync_qps),
                StrFormat("p50 %.3fms p99 %.3fms", p50, p99)});
  table.AddRow({"pipelined", bench::FormatMs(pipe_ms),
                StrFormat("%.0f", pipe_qps),
                StrFormat("%.2fx over sync", pipeline_speedup)});
  table.AddRow({"8 clients", bench::FormatMs(concurrent_ms),
                StrFormat("%.0f", static_cast<double>(expected_replies) /
                                      (concurrent_ms / 1000.0)),
                StrCat(errors.load(), " errors")});
  table.AddRow({"restart recovery", bench::FormatMs(recovery_ms),
                StrFormat("%.0f streams/s", recovery_streams_per_sec),
                StrCat(kStreams, " streams, ", recovered_records,
                       " journal records")});
  std::printf("%s", table.Render().c_str());
  std::printf("\nserver counters: admitted=%lld shed_busy=%lld "
              "shed_quota=%lld shed_drain=%lld proto_errors=%lld\n",
              static_cast<long long>(stats.requests_admitted),
              static_cast<long long>(stats.shed_busy),
              static_cast<long long>(stats.shed_quota),
              static_cast<long long>(stats.shed_drain),
              static_cast<long long>(stats.protocol_errors));

  json.AddResult("server_sync", sync_ms);
  json.AddScalar("server_sync_qps", "qps", sync_qps);
  json.AddScalar("server_sync_p50", "latency_ms", p50);
  json.AddScalar("server_sync_p99", "latency_ms", p99);
  json.AddResult("server_pipelined", pipe_ms, pipeline_speedup);
  json.AddScalar("server_pipelined_qps", "qps", pipe_qps);
  json.AddResult("server_concurrent_8_clients", concurrent_ms);
  json.AddResult("server_restart_recovery", recovery_ms);
  json.AddScalar("server_recovery_streams_per_sec", "streams_per_sec",
                 recovery_streams_per_sec);

  // Gates. The pipelining floor is deliberately modest (1.2x): the win
  // comes from eliminating per-request wait states and batching slices,
  // which must survive even a one-core runner.
  json.AddGate("replies_well_formed", sync_all_ok && pipe_all_ok);
  json.AddGate("pipelining_speedup_1_2x", pipeline_speedup >= 1.2);
  json.AddGate("concurrent_zero_errors", concurrent_ok);
  json.AddGate("drain_no_drops", drain_ok);
  json.AddGate("recovery_bit_identical", recovery_identical);
  std::printf("pipelining speedup %.2fx (floor 1.2x: %s); concurrent "
              "errors %lld; drain drops: %s\n",
              pipeline_speedup, pipeline_speedup >= 1.2 ? "pass" : "FAIL",
              static_cast<long long>(errors.load()),
              drain_ok ? "none" : "LOST REPLIES");

  if (!json.Write()) return 1;
  return json.AllGatesPass() ? 0 : 1;
}
