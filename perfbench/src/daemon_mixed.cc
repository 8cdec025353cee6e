// daemon_mixed: `sigsub_cli serve` under closed-loop mixed traffic.
//
// Three query connections each keep a fixed window of QUERYs in flight;
// the queries come from one seeded script that sends a fresh spec half of
// the time and otherwise repeats an earlier one (Zipf over first-use order),
// so roughly half the requests are result-cache repeats. A fourth
// connection subscribes to a stream and appends chunks one at a time, with
// planted runs so alarms fire, plus a PING and a STATS every 4 appends,
// until the script's last reply is in. Each pass starts a fresh daemon with
// a fresh --state-dir (no warm cache, --fsync=none), sends the same script,
// and ends with a SIGTERM drain. Passes repeat while the run's seconds
// allow; the gated metrics are medians over the passes, so a burst of host
// load that slows one pass does not move them.
//
// Verification (outside the timed region): every QUERY reply is compared
// byte-for-byte, ignoring cache=, with FormatQueryResult of an in-process
// Engine run of the same spec; every append's alarms= with an in-process
// StreamManager replay; and the OK replies with the drain's admitted=.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <set>
#include <span>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Config {
  int levels = 8;    // Length levels of the log-uniform ladder.
  int replicas = 4;  // Records per level.
  int64_t min_length = 1024;
  int64_t max_length = 32768;
  int query_connections = 3;
  int window = 2;
  int chunk = 256;
  int control_every = 4;  // A PING and a STATS every this many appends.
  int setup_spawns = 6;  // Before and again after the traffic.
  int replay_chunks = 256;  // Chunks of the stream script replayed.
};

constexpr const char* kStream = "s0";
constexpr int kKinds = 7;
constexpr int kVariants = 4;

/// One spec of the pool: kind `kind` on record `seq`, parameter variant
/// `v`. Parameters keep each miss in the tens of milliseconds on average.
std::string SpecText(int kind, int seq, int v) {
  static const char* kMssModels[] = {
      "", ",model=probs(0.3;0.2;0.2;0.3)", ",model=probs(0.2;0.3;0.3;0.2)",
      ",model=probs(0.4;0.2;0.2;0.2)"};
  static const int kTopT[] = {3, 5, 8, 12};
  static const char* kAlphaP[] = {"1e-05", "3e-06", "1e-06", "3e-07"};
  static const int kMinLength[] = {200, 500, 1000, 2000};
  static const int kLenBound[][2] = {{8, 256}, {16, 512}, {4, 128}, {32, 1024}};
  static const int kDisjoint[][3] = {{3, 16, 10}, {4, 8, 10}, {3, 32, 5},
                                     {5, 16, 12}};
  static const int kSubstrings[][2] = {{4, 32}, {6, 48}, {3, 24}, {8, 64}};
  const std::string s = std::to_string(seq);
  switch (kind) {
    case 0:
      return "mss:seq=" + s + kMssModels[v];
    case 1:
      return "topt:seq=" + s + ",t=" + std::to_string(kTopT[v]);
    case 2:
      // Capped like a client that reads one page of matches: an uncapped
      // match list on a long record can hold millions of entries.
      return "threshold:seq=" + s + ",alpha_p=" + kAlphaP[v] +
             ",max_matches=1000";
    case 3:
      return "minlen:seq=" + s + ",min_length=" + std::to_string(kMinLength[v]);
    case 4:
      return "lenbound:seq=" + s +
             ",min_length=" + std::to_string(kLenBound[v][0]) +
             ",max_length=" + std::to_string(kLenBound[v][1]);
    case 5:
      return "disjoint:seq=" + s + ",t=" + std::to_string(kDisjoint[v][0]) +
             ",min_length=" + std::to_string(kDisjoint[v][1]) +
             ",min_x2=" + std::to_string(kDisjoint[v][2]);
    default:
      return "substrings:seq=" + s + ",top=10,min_length=" +
             std::to_string(kSubstrings[v][0]) +
             ",max_length=" + std::to_string(kSubstrings[v][1]) +
             ",min_count=2";
  }
}

/// The seeded request script shared by the query connections: fresh specs
/// in `fresh` order alternate with Zipf-drawn repeats, two requests per
/// fresh spec. Calls are serialized, so the i-th request is a function of
/// the seed alone, whichever connection sends it.
class QueryScript {
 public:
  QueryScript(std::vector<std::string> fresh, uint64_t seed)
      : fresh_(std::move(fresh)), rng_(seed) {}

  /// The next request, or nullopt once the script is spent.
  std::optional<std::string> Next() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sent_ == 2 * fresh_.size()) return std::nullopt;
    // Every other request is fresh, so the miss share does not drift with
    // the seed.
    if (sent_++ % 2 == 0) return fresh_[fresh_sent_++];
    // Zipf(1) over the fresh specs sent so far, earliest = most popular.
    const double m = static_cast<double>(fresh_sent_);
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::floor(std::pow(m + 1.0, rng_.Uniform()))), 1,
        fresh_sent_);
    return fresh_[rank - 1];
  }

 private:
  std::mutex mutex_;
  const std::vector<std::string> fresh_;
  Rng rng_;
  size_t fresh_sent_ = 0;
  size_t sent_ = 0;
};

/// Chunk `i` of the stream script: uniform symbols over '0'..'3', with a
/// 64-symbol run biased towards '0' planted in every eighth chunk.
std::string Chunk(uint64_t seed, int64_t i, int size) {
  Rng rng(seed ^ (static_cast<uint64_t>(i) * 0x2545f4914f6cdd1dULL));
  std::string chunk = RandomText(rng, size, "0123");
  if (i % 8 == 5) {
    const int run = std::min(64, size);
    const int at = static_cast<int>(rng.Below(size - run + 1));
    for (int j = at; j < at + run; ++j) {
      if (rng.Uniform() < 0.85) chunk[j] = '0';
    }
  }
  return chunk;
}

struct Exchange {
  enum Kind { kQuery, kAppend, kPing, kStats };
  Exchange(Kind k, int64_t request_id, std::string sent)
      : kind(k), id(request_id), line(std::move(sent)) {}

  Kind kind;
  int64_t id = 0;
  std::string line;   // Sent.
  std::string reply;  // First non-ALARM line received.
  int64_t send_ns = 0;
  int64_t reply_ns = 0;
  double ms() const { return NsToMs(reply_ns - send_ns); }
};

std::map<std::string, std::string> ParseKv(std::string_view line) {
  std::map<std::string, std::string> kv;
  for (const std::string& token : StrSplit(line, ' ')) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

double KvNumber(const std::map<std::string, std::string>& kv,
                const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// A started daemon with its listening port.
struct Daemon {
  std::optional<Child> child;
  int port = 0;
  double setup_s = 0.0;  // Spawn until the first PING answered.
};

Result<Daemon> StartDaemon(const RunOptions& options, const std::string& corpus,
                           const std::string& state_dir, Tracer& tracer) {
  std::error_code ignored;
  std::filesystem::remove_all(state_dir, ignored);
  Daemon daemon;
  const int64_t start = NowNs();
  SIGSUB_ASSIGN_OR_RETURN(
      Child child,
      Child::Spawn({options.cli, "serve", "--input=" + corpus,
                    "--state-dir=" + state_dir, "--fsync=none"}));
  daemon.child.emplace(std::move(child));
  SIGSUB_ASSIGN_OR_RETURN(std::string banner, daemon.child->ReadLine(60000));
  const size_t colon = banner.rfind(':');
  if (!banner.starts_with("sigsubd listening on ") ||
      colon == std::string::npos) {
    return Status::IOError("unexpected banner: " + banner);
  }
  daemon.port = std::atoi(banner.c_str() + colon + 1);
  SIGSUB_ASSIGN_OR_RETURN(
      server::LineClient client,
      server::LineClient::Connect("127.0.0.1", daemon.port, 10000));
  SIGSUB_RETURN_IF_ERROR(client.SendLine("PING"));
  SIGSUB_ASSIGN_OR_RETURN(std::string pong, client.ReadLine(10000));
  const int64_t end = NowNs();
  if (pong != "OK pong") return Status::IOError("unexpected PING reply: " + pong);
  tracer.Record("server.spawn", start, end);
  daemon.setup_s = static_cast<double>(end - start) / 1e9;
  return daemon;
}

/// Drains the daemon with SIGTERM and returns its post-drain counters.
std::map<std::string, std::string> StopDaemon(Daemon& daemon,
                                              Outcome& outcome) {
  daemon.child->Signal(SIGTERM);
  daemon.child->Wait();
  ++outcome.attempted;
  if (daemon.child->exit_code() != 0) {
    outcome.Fail("daemon exited with code " +
                 std::to_string(daemon.child->exit_code()));
  }
  for (const std::string& line : StrSplit(daemon.child->rest_of_stdout(), '\n')) {
    if (line.starts_with("sigsubd drained:")) return ParseKv(line);
  }
  outcome.Fail("no drain summary from the daemon");
  return {};
}

/// What one pass of traffic produced.
struct Pass {
  std::vector<Exchange> exchanges;
  std::vector<std::string> chunks_sent;  // In append order.
  int64_t alarms_pushed_seen = 0;
  std::vector<double> queue_depths;
  std::map<std::string, std::string> final_stats;
  std::map<std::string, std::string> drained;
  double load_s = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
  std::string create_line;
};

/// Reads the next non-ALARM line, counting the ALARM pushes skipped.
Result<std::string> ReadReply(server::LineClient& client, int64_t* alarms) {
  for (;;) {
    SIGSUB_ASSIGN_OR_RETURN(std::string line, client.ReadLine(120000));
    if (!line.starts_with("ALARM ")) return line;
    ++*alarms;
  }
}

Pass RunPass(const RunOptions& options, const Config& config,
             const std::string& corpus, const std::vector<std::string>& fresh,
             const std::string& state_dir, Tracer& tracer, Outcome& outcome) {
  Pass pass;
  Result<Daemon> started = StartDaemon(options, corpus, state_dir, tracer);
  if (!started.ok()) {
    outcome.Fail("daemon start: " + started.status().ToString());
    return pass;
  }
  Daemon& daemon = *started;
  pass.setup_s = daemon.setup_s;

  std::vector<server::LineClient> clients;
  for (int c = 0; c <= config.query_connections; ++c) {
    auto client = server::LineClient::Connect("127.0.0.1", daemon.port, 10000);
    if (!client.ok()) {
      outcome.Fail("connect: " + client.status().ToString());
      StopDaemon(daemon, outcome);
      return pass;
    }
    clients.push_back(std::move(client).value());
  }
  server::LineClient& stream = clients.back();
  pass.create_line = std::string("STREAM.CREATE ") + kStream +
                     " probs=0.25;0.25;0.25;0.25 alpha=1e-06 max_window=1024";
  int64_t alarms_seen = 0;
  for (const std::string& line :
       {pass.create_line, std::string("SUBSCRIBE ") + kStream}) {
    ++outcome.attempted;
    Result<std::string> reply = stream.SendLine(line).ok()
                                    ? ReadReply(stream, &alarms_seen)
                                    : Result<std::string>(Status::IOError("send"));
    if (!reply.ok() || !reply->starts_with("OK ")) {
      outcome.Fail("stream setup '" + line + "' failed");
    }
  }

  QueryScript script(fresh, options.seed * 7919 + 17);
  std::atomic<int64_t> next_id{1};
  std::atomic<int> query_loops_running{config.query_connections};
  const int64_t start = NowNs();
  std::vector<std::vector<Exchange>> per_thread(clients.size());
  std::vector<std::string> thread_errors(clients.size());

  auto query_loop = [&](size_t c) {
    server::LineClient& client = clients[c];
    std::deque<Exchange> inflight;
    // Sends the script's next request; false once the script is spent.
    auto send_next = [&]() -> bool {
      std::optional<std::string> spec = script.Next();
      if (!spec) return false;
      Exchange e{Exchange::kQuery, next_id.fetch_add(1), "QUERY " + *spec};
      e.send_ns = NowNs();
      if (!client.SendLine(e.line).ok()) {
        thread_errors[c] = "send failed";
        return false;
      }
      inflight.push_back(std::move(e));
      return true;
    };
    for (int i = 0; i < config.window && send_next(); ++i) {
    }
    while (!inflight.empty() && thread_errors[c].empty()) {
      Result<std::string> reply = client.ReadLine(120000);
      if (!reply.ok()) {
        thread_errors[c] = reply.status().ToString();
        break;
      }
      Exchange e = std::move(inflight.front());
      inflight.pop_front();
      e.reply_ns = NowNs();
      e.reply = std::move(reply).value();
      tracer.Record("server.query", e.send_ns, e.reply_ns, e.id);
      per_thread[c].push_back(std::move(e));
      send_next();
    }
    query_loops_running.fetch_sub(1);
  };

  auto stream_loop = [&]() {
    const size_t c = clients.size() - 1;
    auto exchange = [&](Exchange::Kind kind, std::string line) -> bool {
      Exchange e{kind, next_id.fetch_add(1), std::move(line)};
      e.send_ns = NowNs();
      Result<std::string> reply = stream.SendLine(e.line).ok()
                                      ? ReadReply(stream, &alarms_seen)
                                      : Result<std::string>(Status::IOError("send"));
      if (!reply.ok()) {
        thread_errors[c] = reply.status().ToString();
        return false;
      }
      e.reply_ns = NowNs();
      e.reply = std::move(reply).value();
      static const char* kNames[] = {"server.query", "server.append",
                                     "server.ping", "server.stats"};
      tracer.Record(kNames[kind], e.send_ns, e.reply_ns, e.id);
      if (kind == Exchange::kStats) {
        pass.queue_depths.push_back(KvNumber(ParseKv(e.reply), "queue_depth"));
      }
      per_thread[c].push_back(std::move(e));
      return true;
    };
    for (int64_t i = 0; query_loops_running.load() > 0; ++i) {
      std::string chunk = Chunk(options.seed, i, config.chunk);
      if (!exchange(Exchange::kAppend,
                    std::string("STREAM.APPEND ") + kStream + " " + chunk)) {
        return;
      }
      pass.chunks_sent.push_back(std::move(chunk));
      if ((i + 1) % config.control_every == 0 &&
          (!exchange(Exchange::kPing, "PING") ||
           !exchange(Exchange::kStats, "STATS"))) {
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < config.query_connections; ++c) {
    threads.emplace_back(query_loop, static_cast<size_t>(c));
  }
  threads.emplace_back(stream_loop);
  for (std::thread& t : threads) t.join();
  pass.load_s = static_cast<double>(NowNs() - start) / 1e9;

  // Every reply is in; read the final counters, then drain.
  ++outcome.attempted;
  Result<std::string> stats = stream.SendLine("STATS").ok()
                                  ? ReadReply(stream, &alarms_seen)
                                  : Result<std::string>(Status::IOError("send"));
  if (stats.ok() && stats->starts_with("OK ")) {
    pass.final_stats = ParseKv(*stats);
  } else {
    outcome.Fail("final STATS failed");
  }
  for (const std::string& error : thread_errors) {
    if (!error.empty()) outcome.Fail("connection: " + error);
  }
  clients.clear();
  pass.drained = StopDaemon(daemon, outcome);
  pass.peak_rss_mb = daemon.child->max_rss_mb();
  pass.alarms_pushed_seen = alarms_seen;
  for (auto& exchanges : per_thread) {
    for (Exchange& e : exchanges) pass.exchanges.push_back(std::move(e));
  }
  std::sort(pass.exchanges.begin(), pass.exchanges.end(),
            [](const Exchange& a, const Exchange& b) { return a.id < b.id; });
  return pass;
}

std::string NormalizeCache(std::string reply) {
  const size_t at = reply.find(" cache=1 ");
  if (at != std::string::npos) reply[at + 7] = '0';
  return reply;
}

/// Checks one pass against the in-process references and counts its
/// operations and failures.
void VerifyPass(const Pass& pass, const std::map<std::string, std::string>& expected,
                const std::vector<double>& stream_probs,
                const core::StreamingDetector::Options& detector,
                Outcome& outcome) {
  engine::StreamManager manager;
  if (!manager.CreateStream(kStream, stream_probs, detector).ok()) {
    outcome.Fail("stream replay: create failed");
    return;
  }
  size_t chunk = 0;
  int64_t ok_engine_bound = 1;  // STREAM.CREATE.
  int64_t alarms_replied = 0;
  for (const Exchange& e : pass.exchanges) {
    ++outcome.attempted;
    if (!e.reply.starts_with("OK ")) {
      outcome.Fail("'" + e.line.substr(0, 60) + "' -> " + e.reply);
      continue;
    }
    switch (e.kind) {
      case Exchange::kQuery: {
        ++ok_engine_bound;
        auto it = expected.find(e.line.substr(6));
        if (it == expected.end() || NormalizeCache(e.reply) != it->second) {
          outcome.Fail("reply mismatch for " + e.line);
        }
        break;
      }
      case Exchange::kAppend: {
        ++ok_engine_bound;
        const std::string& text = pass.chunks_sent[chunk++];
        std::vector<uint8_t> symbols;
        for (char c : text) symbols.push_back(static_cast<uint8_t>(c - '0'));
        auto alarms = manager.AppendCollect(kStream, symbols);
        const int64_t got = static_cast<int64_t>(KvNumber(ParseKv(e.reply), "alarms"));
        alarms_replied += got;
        if (!alarms.ok() || static_cast<int64_t>(alarms->size()) != got) {
          outcome.Fail("append alarms mismatch at chunk " + std::to_string(chunk));
        }
        break;
      }
      default:
        break;
    }
  }
  const int64_t admitted = static_cast<int64_t>(KvNumber(pass.drained, "admitted"));
  if (admitted != ok_engine_bound) {
    outcome.Fail("drain admitted=" + std::to_string(admitted) + " but " +
                 std::to_string(ok_engine_bound) + " engine-bound OK replies");
  }
  if (pass.alarms_pushed_seen != alarms_replied ||
      static_cast<int64_t>(KvNumber(pass.drained, "alarms_pushed")) !=
          alarms_replied) {
    outcome.Fail("ALARM pushes do not match the appends' alarms= total");
  }
  const int64_t shed = static_cast<int64_t>(KvNumber(pass.drained, "shed_busy") +
                                            KvNumber(pass.drained, "shed_quota") +
                                            KvNumber(pass.drained, "shed_drain"));
  for (int64_t i = 0; i < shed; ++i) outcome.Fail("request shed by the daemon");
}

std::vector<double> Latencies(const Pass& pass, Exchange::Kind kind,
                              std::string_view must_contain = "") {
  std::vector<double> ms;
  for (const Exchange& e : pass.exchanges) {
    if (e.kind == kind && e.reply.find(must_contain) != std::string::npos) {
      ms.push_back(e.ms());
    }
  }
  return ms;
}

/// The gated latencies are per-pass means (all queries; the slowest tenth;
/// all appends), and the gated figures their medians over the passes: a
/// closed loop's slices batch requests together, so single percentiles
/// jump with slice composition while means stay steady. The percentiles,
/// over the requests of every pass, are reported alongside.
struct EndToEnd {
  double query_mean = 0, query_tail_mean = 0, append_mean = 0, qps = 0;
  double peak_rss_mb = 0;
  double query_p50 = 0, query_p99 = 0, append_p99 = 0;
  size_t queries = 0, appends = 0;
};

EndToEnd Summarize(std::span<const Pass> passes) {
  std::vector<double> query_mean, query_tail_mean, append_mean, qps, rss;
  std::vector<double> queries, appends;
  for (const Pass& pass : passes) {
    const std::vector<double> q = Latencies(pass, Exchange::kQuery);
    const std::vector<double> a = Latencies(pass, Exchange::kAppend);
    query_mean.push_back(Mean(q));
    query_tail_mean.push_back(TailMean(q, 0.1));
    append_mean.push_back(Mean(a));
    qps.push_back(pass.load_s > 0 ? static_cast<double>(q.size()) / pass.load_s : 0);
    rss.push_back(pass.peak_rss_mb);
    queries.insert(queries.end(), q.begin(), q.end());
    appends.insert(appends.end(), a.begin(), a.end());
  }
  EndToEnd e;
  e.query_mean = Median(query_mean);
  e.query_tail_mean = Median(query_tail_mean);
  e.append_mean = Median(append_mean);
  e.qps = Median(qps);
  e.peak_rss_mb = Median(rss);
  e.query_p50 = Median(queries);
  e.query_p99 = Quantile(queries, TailQuantile(queries.size()));
  e.append_p99 = Quantile(appends, TailQuantile(appends.size()));
  e.queries = queries.size();
  e.appends = appends.size();
  return e;
}

}  // namespace

Outcome RunDaemonMixed(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  Config config;
  if (options.smoke) {
    config.levels = 3;
    config.replicas = 2;
    config.control_every = 1;
    config.min_length = 256;
    config.max_length = 2048;
    config.setup_spawns = 2;
    config.replay_chunks = 32;
  }

  // ---- inputs: a k=4 lines corpus whose record lengths are a log-uniform
  // ladder (one level per stratum midpoint, `replicas` records per level;
  // rank = level * replicas + replica). The seed picks the contents and
  // which record gets which rank; the ladder itself, and so the cost of
  // each (kind, level) pair, is the same for every seed.
  const int records = config.levels * config.replicas;
  Rng rng(options.seed);
  Rng length_rng = rng.Fork(1);
  Rng text_rng = rng.Fork(2);
  std::vector<int64_t> lengths;
  const double ratio = static_cast<double>(config.max_length) / config.min_length;
  for (int level = 0; level < config.levels; ++level) {
    const double u = (level + 0.5) / config.levels;
    for (int r = 0; r < config.replicas; ++r) {
      lengths.push_back(std::llround(config.min_length * std::pow(ratio, u)));
    }
  }
  std::vector<int> record_of_rank(static_cast<size_t>(records));
  for (int i = 0; i < records; ++i) record_of_rank[i] = i;
  Shuffle(record_of_rank, length_rng);
  std::vector<int64_t> by_record(lengths.size());
  for (int i = 0; i < records; ++i) by_record[record_of_rank[i]] = lengths[i];
  lengths = by_record;
  std::string corpus_text;
  int64_t symbols = 0;
  for (int64_t n : lengths) {
    corpus_text += RandomText(text_rng, n, "acgt") + "\n";
    symbols += n;
  }
  const std::string corpus_path = options.work_dir + "/corpus.txt";
  if (!WriteFile(corpus_path, corpus_text).ok()) {
    outcome.Fail("cannot write " + corpus_path);
    return outcome;
  }
  // Fresh specs: every (kind, level) pair on two replicas of the level,
  // kinds spread over the replicas, so a level's cost sums over several
  // records' contents; parameter variants are spread over kinds, levels
  // and copies. The order is fixed across seeds, so every pass does the
  // same work whatever the seed.
  struct FreshSpec {
    int kind, level, copy;
  };
  std::vector<FreshSpec> specs_in_pass;
  for (int level = 0; level < config.levels; ++level) {
    for (int kind = 0; kind < kKinds; ++kind) {
      for (int copy = 0; copy < 2; ++copy) specs_in_pass.push_back({kind, level, copy});
    }
  }
  Rng order_rng(1000);
  Shuffle(specs_in_pass, order_rng);
  std::vector<std::string> fresh;
  for (const FreshSpec& f : specs_in_pass) {
    const int replica = (f.kind + f.copy * config.replicas / 2) % config.replicas;
    const int rank = f.level * config.replicas + replica;
    fresh.push_back(SpecText(f.kind, record_of_rank[rank],
                             (f.kind + f.level + f.copy) % kVariants));
  }
  outcome.report << "daemon_mixed: " << records << " records (" << config.levels
                 << " length levels x " << config.replicas << "), "
                 << symbols << " symbols (k=4, " << config.min_length << ".."
                 << config.max_length << " log-uniform), " << corpus_text.size()
                 << " corpus bytes; closed loop, " << config.query_connections
                 << " query connections x window " << config.window
                 << " + 1 stream connection; " << 2 * fresh.size()
                 << " queries per pass (" << fresh.size()
                 << " fresh); --fsync=none\n";

  // ---- set-up: spawn until the first PING answers, several times before
  // and after the traffic, so the median spans the run.
  std::vector<double> setups;
  auto measure_setups = [&] {
    for (int i = 0; i < config.setup_spawns; ++i) {
      Tracer quiet(false);
      Result<Daemon> daemon = StartDaemon(
          options, corpus_path, options.work_dir + "/state-setup", quiet);
      if (!daemon.ok()) {
        outcome.Fail("daemon start: " + daemon.status().ToString());
        return;
      }
      setups.push_back(daemon->setup_s);
      StopDaemon(*daemon, outcome);
    }
  };
  measure_setups();

  // ---- traffic: untraced passes while the run's seconds allow (at least
  // one); a traced run then adds one traced pass, so the difference between
  // the two is the tracing overhead.
  std::vector<Pass> passes;
  Tracer untraced(false);
  const int64_t traffic_start = NowNs();
  double elapsed_s = 0.0, last_pass_s = 0.0;
  while (passes.empty() || elapsed_s + last_pass_s <= options.seconds) {
    const int64_t pass_start = NowNs();
    passes.push_back(RunPass(options, config, corpus_path, fresh,
                             options.work_dir + "/state-pass", untraced, outcome));
    last_pass_s = static_cast<double>(NowNs() - pass_start) / 1e9;
    elapsed_s = static_cast<double>(NowNs() - traffic_start) / 1e9;
    if (passes.back().exchanges.empty()) break;  // The daemon did not start.
  }
  const size_t untraced_passes = passes.size();
  if (tracer.enabled()) {
    passes.push_back(RunPass(options, config, corpus_path, fresh,
                             options.work_dir + "/state-pass", tracer, outcome));
  }
  for (const Pass& pass : passes) setups.push_back(pass.setup_s);
  measure_setups();

  // ---- verification, outside the timed region.
  Result<engine::Corpus> corpus = engine::Corpus::FromLines(corpus_path);
  if (!corpus.ok()) {
    outcome.Fail("corpus load: " + corpus.status().ToString());
    return outcome;
  }
  std::set<std::string> distinct;
  for (const Pass& pass : passes) {
    for (const Exchange& e : pass.exchanges) {
      if (e.kind == Exchange::kQuery) distinct.insert(e.line.substr(6));
    }
  }
  std::vector<std::string> texts(distinct.begin(), distinct.end());
  std::vector<api::QuerySpec> specs;
  for (const std::string& text : texts) specs.push_back(api::ParseQuery(text).value());
  std::map<std::string, std::string> expected;
  {
    engine::Engine engine({.num_threads = 4});
    auto results = engine.ExecuteQueries(*corpus, specs);
    if (!results.ok()) {
      outcome.Fail("reference engine: " + results.status().ToString());
      return outcome;
    }
    for (size_t i = 0; i < texts.size(); ++i) {
      expected[texts[i]] =
          NormalizeCache("OK " + server::protocol::FormatQueryResult((*results)[i], 64));
    }
  }
  Result<server::protocol::Request> create =
      server::protocol::ParseRequest(passes.front().create_line);
  if (!create.ok()) {
    outcome.Fail("stream create line does not parse");
    return outcome;
  }
  for (const Pass& pass : passes) {
    VerifyPass(pass, expected, create->probs, create->detector, outcome);
  }

  // The exact stream count: alarms over a fixed prefix of the chunk script.
  engine::StreamManager manager;
  (void)manager.CreateStream(kStream, create->probs, create->detector);
  int64_t script_alarms = 0;
  std::vector<std::vector<uint8_t>> script_chunks;
  for (int i = 0; i < config.replay_chunks; ++i) {
    std::vector<uint8_t> symbols_i;
    for (char c : Chunk(options.seed, i, config.chunk)) symbols_i.push_back(c - '0');
    script_chunks.push_back(std::move(symbols_i));
  }
  for (const auto& chunk : script_chunks) {
    ScopedSpan span(tracer, "engine.stream_append");
    script_alarms += static_cast<int64_t>(manager.AppendCollect(kStream, chunk)->size());
  }
  outcome.exact["stream.alarms"] = script_alarms;

  const EndToEnd e2e =
      Summarize(std::span<const Pass>(passes.data(), untraced_passes));
  outcome.metrics["primary_ms"] = e2e.query_mean;
  outcome.metrics["secondary_ms"] = e2e.query_tail_mean;
  outcome.metrics["tertiary_ms"] = e2e.append_mean;
  outcome.metrics["throughput_per_s"] = e2e.qps;
  outcome.metrics["setup_s"] = Median(setups);
  outcome.metrics["peak_rss_mb"] = e2e.peak_rss_mb;
  const double hit_ratio =
      KvNumber(passes.front().final_stats, "cache_hits") /
      std::max(1.0, KvNumber(passes.front().final_stats, "cache_hits") +
                        KvNumber(passes.front().final_stats, "cache_misses"));
  outcome.report << "medians over " << untraced_passes << " passes: daemon_qps "
                 << e2e.qps << " queries/s; query mean "
                 << e2e.query_mean << " ms, slowest-10% mean "
                 << e2e.query_tail_mean << " ms, append mean " << e2e.append_mean
                 << " ms; over every pass: query_p50_ms " << e2e.query_p50
                 << " ms, query_p" << 100 * TailQuantile(e2e.queries) << "_ms "
                 << e2e.query_p99 << " ms (" << e2e.queries
                 << " queries), append_p" << 100 * TailQuantile(e2e.appends) << "_ms "
                 << e2e.append_p99 << " ms (" << e2e.appends
                 << " appends); setup_s "
                 << Median(setups) << " s (" << setups.size()
                 << " spawns); peak_rss_mb " << e2e.peak_rss_mb
                 << " MiB; cache hit ratio " << hit_ratio << "\n";
  outcome.report << "per-pass query mean (ms):";
  for (size_t i = 0; i < untraced_passes; ++i) {
    outcome.report << " " << Mean(Latencies(passes[i], Exchange::kQuery));
  }
  outcome.report << "\n";

  if (!tracer.enabled()) return outcome;

  // ---- per-layer replay: the traced pass's request lines through the
  // parsers, a fixed subset of specs through the engine and the kernels,
  // and the stream script through the detector and the journal.
  const Pass& traced = passes.back();
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "io.lines_load");
    (void)engine::Corpus::FromLines(corpus_path);
  }
  for (const Exchange& e : traced.exchanges) {
    if (e.kind != Exchange::kQuery && e.kind != Exchange::kAppend) continue;
    {
      ScopedSpan span(tracer, "protocol.parse", e.id);
      (void)server::protocol::ParseRequest(e.line);
    }
    if (e.kind == Exchange::kQuery) {
      Result<api::QuerySpec> spec = [&] {
        ScopedSpan span(tracer, "api.parse_query", e.id);
        return api::ParseQuery(e.line.substr(6));
      }();
      ScopedSpan span(tracer, "api.fingerprint", e.id);
      (void)api::FingerprintQuery(*spec);
    }
  }
  {
    ScopedSpan span(tracer, "engine.fingerprint");
    for (int64_t r = 0; r < corpus->size(); ++r) {
      (void)engine::FingerprintSequence(corpus->sequence(r));
    }
  }
  // Every other length rank, so the subset spans the whole ladder.
  std::vector<api::QuerySpec> subset;
  for (int rank = 0; rank < records; rank += 2) {
    for (int kind = 0; kind < kKinds; ++kind) {
      subset.push_back(
          api::ParseQuery(SpecText(kind, record_of_rank[rank], 0)).value());
    }
  }
  engine::Engine replay_engine({.num_threads = 4});
  Result<std::vector<api::QueryResult>> replayed = [&] {
    ScopedSpan span(tracer, "engine.execute");
    return replay_engine.ExecuteQueries(*corpus, subset);
  }();
  double reply_bytes = 0.0;
  if (replayed.ok()) {
    for (const api::QueryResult& result : *replayed) {
      ScopedSpan span(tracer, "protocol.format");
      reply_bytes += static_cast<double>(
          server::protocol::FormatQueryResult(result, 64).size());
    }
  }
  ReplayCounts counts;
  for (size_t i = 0; i < subset.size(); ++i) {
    const seq::Sequence& sequence = corpus->sequence(subset[i].sequence_index);
    std::optional<seq::PrefixCounts> prefix;
    {
      ScopedSpan span(tracer, "seq.prefix_counts", static_cast<int64_t>(i));
      prefix.emplace(sequence);
    }
    counts.AddPrefixCounts(sequence.size(), 4);
    Result<DirectResult> direct = RunDirect(subset[i], sequence, *prefix, 4,
                                            tracer, static_cast<int64_t>(i));
    if (!direct.ok() || !replayed.ok() ||
        RowsKey(direct->rows) != RowsKey((*replayed)[i].substrings())) {
      outcome.Fail("direct kernel disagrees with the engine on " +
                   api::FormatQuery(subset[i]));
      continue;
    }
    counts.Add(*direct, sequence.size());
  }
  outcome.exact["core.positions_examined"] = counts.positions_examined;
  outcome.exact["core.suffix_classes"] = counts.suffix_classes;
  outcome.exact["core.suffix_candidates"] = counts.suffix_candidates;

  // Streaming detector and journal under the same chunk script.
  Result<seq::MultinomialModel> model = seq::MultinomialModel::Make(create->probs);
  Result<core::StreamingDetector> detector =
      core::StreamingDetector::Make(*model, create->detector);
  int64_t detector_alarms = 0;
  for (const auto& chunk : script_chunks) {
    ScopedSpan span(tracer, "core.streaming_append");
    detector_alarms += static_cast<int64_t>(detector->AppendChunk(chunk).size());
  }
  if (detector_alarms != script_alarms) {
    outcome.Fail("StreamingDetector and StreamManager disagree on alarms");
  }
  const std::string persist_dir = options.work_dir + "/persist-replay";
  std::error_code ignored;
  std::filesystem::remove_all(persist_dir, ignored);
  engine::StreamManager journaled;
  persist::RecoveryStats recovery;
  Result<persist::StateStore> store = persist::StateStore::Open(
      persist_dir, {.fsync_policy = persist::FsyncPolicy::kNone,
                    .snapshot_interval_ms = 0},
      &journaled, nullptr, &recovery);
  if (store.ok() &&
      store->RecordCreate(kStream, create->probs, create->detector).ok() &&
      journaled.CreateStream(kStream, create->probs, create->detector).ok()) {
    for (const auto& chunk : script_chunks) {
      {
        ScopedSpan span(tracer, "persist.journal_append");
        (void)store->RecordAppend(kStream, chunk);
      }
      (void)journaled.Append(kStream, chunk);
    }
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(tracer, "persist.snapshot");
      (void)store->Snapshot(journaled, &replay_engine.result_cache());
    }
  } else {
    outcome.Fail("persist replay could not open its state store");
  }

  const std::vector<Span> spans = tracer.spans();
  AddLayerMetrics(spans, counts, 4, outcome);
  auto& m = outcome.metrics;
  const Pass& p = traced;
  auto hits = Latencies(p, Exchange::kQuery, " cache=1 ");
  auto misses = Latencies(p, Exchange::kQuery, " cache=0 ");
  m["server.hit_p50_ms"] = Median(hits);
  m["server.hit_p99_ms"] = Quantile(hits, TailQuantile(hits.size()));
  m["server.miss_p50_ms"] = Median(misses);
  m["server.miss_p99_ms"] = Quantile(misses, TailQuantile(misses.size()));
  m["server.ping_p50_ms"] = Median(Latencies(p, Exchange::kPing));
  double depth = 0.0;
  for (double d : p.queue_depths) depth += d;
  m["server.queue_depth_mean"] =
      p.queue_depths.empty() ? 0.0 : depth / static_cast<double>(p.queue_depths.size());
  m["server.queries_per_batch"] =
      KvNumber(p.final_stats, "queries") /
      std::max(1.0, KvNumber(p.final_stats, "batches"));
  m["server.shed"] = KvNumber(p.drained, "shed_busy") +
                     KvNumber(p.drained, "shed_quota") +
                     KvNumber(p.drained, "shed_drain");
  m["protocol.reply_bytes"] =
      replayed.ok() && !replayed->empty()
          ? reply_bytes / static_cast<double>(replayed->size())
          : 0.0;
  const double hits_n = KvNumber(p.final_stats, "cache_hits");
  m["engine.cache_hit_ratio"] =
      hits_n / std::max(1.0, hits_n + KvNumber(p.final_stats, "cache_misses"));
  m["engine.cache_evictions"] = KvNumber(p.final_stats, "cache_evictions");
  m["stream.alarms"] = static_cast<double>(script_alarms);
  m["trace.overhead_ms"] =
      Summarize(std::span<const Pass>(&traced, 1)).query_mean - e2e.query_mean;
  return outcome;
}

}  // namespace perfbench
