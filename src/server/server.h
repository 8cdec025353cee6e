#ifndef SIGSUB_SERVER_SERVER_H_
#define SIGSUB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/stream_manager.h"
#include "persist/state_store.h"
#include "server/protocol.h"

namespace sigsub {
namespace server {

struct ServerOptions {
  /// Bind address. The default loopback/ephemeral pair is what tests and
  /// the bench harness want; `port() ` reports the kernel's pick.
  std::string host = "127.0.0.1";
  int port = 0;

  /// The shared engine's construction.
  engine::EngineOptions engine;

  /// Accepted connections beyond this are greeted with `ERR EBUSY server
  /// full` and closed immediately.
  int max_connections = 64;
  /// Admission-queue depth across all connections; an engine-bound
  /// request arriving with the queue full is shed with EBUSY (it never
  /// executes — the client retries with backoff).
  size_t max_queue = 256;
  /// Engine-bound requests one connection may have queued or executing;
  /// the excess is refused with EQUOTA until its own replies drain.
  int max_inflight_per_client = 32;
  /// A connection idle this long with nothing in flight gets ERR
  /// ETIMEOUT and is closed. <= 0 disables idle harvesting.
  int64_t idle_timeout_ms = 60000;
  /// Graceful-drain budget: connections still open this long after
  /// RequestDrain are force-closed (their queued work has already been
  /// answered by then unless the executor itself is stuck).
  int64_t drain_timeout_ms = 5000;

  /// A request line longer than this (no newline seen) is a protocol
  /// abuse: ERR ETOOBIG, then close.
  size_t max_line_bytes = 1 << 16;
  /// A connection whose unsent reply/alarm backlog exceeds this is a slow
  /// consumer holding server memory hostage; it is disconnected.
  size_t max_write_buffer = 1 << 20;
  /// Executor slice: up to this many queued requests are popped per wake,
  /// and their QUERYs execute as one engine batch (context reuse across
  /// concurrent clients — the whole point of a shared daemon).
  size_t batch_max = 64;
  /// Substring rows materialized per query reply (protocol::FormatQueryResult).
  size_t max_result_rows = 64;

  /// Test seam: when set, the executor calls this after waking and BEFORE
  /// popping its slice. A test that blocks in the hook freezes admission
  /// -> queue/quota saturation becomes deterministic instead of a race.
  std::function<void()> executor_hook;

  // --- Durability (src/persist/) -----------------------------------------
  /// When non-empty, the server is crash-safe: Start() replays the
  /// directory's snapshot + journal tail into the stream manager (and
  /// warms the result cache), every acknowledged stream op is journaled
  /// on the executor thread BEFORE it is applied (a journal failure is
  /// replied EPERSIST and NOT applied), snapshots are written
  /// periodically and on drain, and each snapshot truncates the
  /// journal. Empty (the default) disables persistence entirely.
  std::string state_dir;
  /// Journal fsync policy (kAlways survives power loss; kNone only
  /// process crashes). Ignored without state_dir.
  persist::FsyncPolicy fsync_policy = persist::FsyncPolicy::kAlways;
  /// Milliseconds between periodic snapshots; <= 0 leaves only the
  /// snapshot-on-drain. Ignored without state_dir.
  int64_t snapshot_interval_ms = 30000;
};

/// Monotonic server-level counters (atomic snapshot via Server::stats()).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_current = 0;
  int64_t requests_admitted = 0;
  int64_t control_requests = 0;
  int64_t shed_busy = 0;        // EBUSY: admission queue full.
  int64_t shed_quota = 0;       // EQUOTA: per-connection cap.
  int64_t shed_drain = 0;       // EDRAIN: refused while draining.
  int64_t protocol_errors = 0;  // EPROTO / EINVALID replies.
  int64_t idle_timeouts = 0;
  int64_t slow_disconnects = 0;  // Write backlog over max_write_buffer.
  int64_t alarms_pushed = 0;     // ALARM lines delivered to subscribers.
  int64_t persist_errors = 0;    // EPERSIST replies + failed snapshots.
  int64_t uptime_ms = 0;
};

/// sigsubd: the mining daemon. One poll()-looped I/O thread speaks the
/// newline-delimited protocol (server/protocol.h) to many concurrent
/// clients; one executor thread owns the engine (whose contract is one
/// batch at a time) and executes admitted work in slices, batching
/// concurrent clients' QUERYs into single Engine::ExecuteQueries calls.
/// Each QUERY answers from its own result's status, so one client's
/// invalid query fails only itself and the slice stays one engine batch.
/// Stream commands run against an engine::StreamManager; alarms raised by
/// STREAM.APPEND fan out to every connection SUBSCRIBEd to that stream.
///
/// Backpressure is explicit, never silent: admission checks run in order
/// drain -> per-client quota -> global queue, and each refusal is a
/// distinct wire code (EDRAIN / EQUOTA / EBUSY) so clients can tell "back
/// off everywhere" from "read your own replies first". Control commands
/// (PING/STATS/HEALTH/SUBSCRIBE/UNSUBSCRIBE/QUIT) are answered inline by
/// the I/O thread and deliberately overtake queued work — monitoring must
/// keep answering precisely when the server is saturated. Within each
/// class, replies preserve per-connection request order.
///
/// Shutdown: RequestDrain() is async-signal-safe (an atomic flag plus one
/// self-pipe byte), so `serve` installs it directly as its SIGTERM/SIGINT
/// action. Draining stops accepting, sheds new engine-bound work with
/// EDRAIN, finishes everything already admitted, flushes every reply and
/// alarm buffer, then closes — zero admitted requests are dropped.
class Server {
 public:
  /// The corpus is fixed at construction (the daemon serves queries
  /// against it); streams are created dynamically by clients.
  Server(engine::Corpus corpus, ServerOptions options = {});

  /// Not movable: RequestDrain may be latched into a signal handler.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the I/O and executor threads. IOError if
  /// the socket cannot be bound.
  Status Start();

  /// The bound port (after Start) — the ephemeral-port answer.
  int port() const { return port_; }

  /// Initiates graceful drain. Async-signal-safe: sets an atomic flag and
  /// writes one byte to the wakeup pipe. Idempotent.
  void RequestDrain();

  /// Blocks until the server has fully drained and both threads exited.
  void Join();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;

  /// What replay-on-startup found (zero-valued without state_dir or
  /// before Start). Stable once Start() returns.
  const persist::RecoveryStats& recovery() const { return recovery_; }

  /// Drains (if still running) and joins.
  ~Server();

 private:
  struct Connection;

  /// One admitted engine-bound request.
  struct Work {
    uint64_t conn_id = 0;
    protocol::Request request;
  };

  /// One line owed to a connection (reply), or — when conn_id is 0 — an
  /// alarm line to broadcast to `stream`'s subscribers.
  struct Outbound {
    uint64_t conn_id = 0;
    std::string line;
    bool completes_inflight = false;
    std::string stream;
  };

  void IoLoop();
  void ExecutorLoop() SIGSUB_EXCLUDES(queue_mutex_);

  /// Executes one slice of admitted work: all QUERYs as one engine batch
  /// (falling back to per-query execution if the batch fails validation),
  /// stream ops one by one in slice order; posts replies and alarm pushes.
  void ExecuteSlice(std::vector<Work> slice);

  // --- I/O-thread-only helpers -------------------------------------------
  void AcceptPending(int64_t now_ms);
  void ReadFromConnection(Connection& conn, int64_t now_ms);
  void HandleLine(Connection& conn, const std::string& line, int64_t now_ms)
      SIGSUB_EXCLUDES(queue_mutex_);
  void HandleControl(Connection& conn, const protocol::Request& request);
  std::string StatsReplyPayload() const SIGSUB_EXCLUDES(queue_mutex_);
  /// Appends `line` + '\n' to the connection's write buffer and flushes
  /// what the socket will take. Returns false when this killed the
  /// connection (write error, or backlog over max_write_buffer) — the
  /// caller's reference is dead then.
  bool QueueReply(Connection& conn, std::string line);
  void FlushWrites(Connection& conn);
  void DrainResponseQueue() SIGSUB_EXCLUDES(response_mutex_);
  void CloseConnection(uint64_t conn_id);
  void HarvestIdle(int64_t now_ms);
  /// True when every connection's write buffer is empty and nothing is in
  /// flight — the drain-completion condition.
  bool DrainComplete() const
      SIGSUB_EXCLUDES(queue_mutex_, response_mutex_);

  void PostOutbound(std::vector<Outbound> lines)
      SIGSUB_EXCLUDES(response_mutex_);
  void Wakeup();

  engine::Corpus corpus_ SIGSUB_THREAD_CONFINED(init);
  ServerOptions options_ SIGSUB_THREAD_CONFINED(init);
  engine::Engine engine_ SIGSUB_THREAD_CONFINED(executor);
  engine::StreamManager streams_;  // Internally synchronized.

  // Durability (engaged only with options_.state_dir). Touched by the
  // executor thread after Start(); Start() itself runs recovery before
  // either thread exists.
  std::unique_ptr<persist::StateStore> state_ SIGSUB_THREAD_CONFINED(executor);
  persist::RecoveryStats recovery_ SIGSUB_THREAD_CONFINED(init);

  // Sockets: opened in Start() before either thread spawns, immutable
  // until Stop() joins them again.
  int listen_fd_ SIGSUB_THREAD_CONFINED(init) = -1;
  int port_ SIGSUB_THREAD_CONFINED(init) = 0;
  int wakeup_read_fd_ SIGSUB_THREAD_CONFINED(init) = -1;
  int wakeup_write_fd_ SIGSUB_THREAD_CONFINED(init) = -1;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_executor_{false};
  std::atomic<int64_t> inflight_total_{0};

  // Admission queue: I/O thread pushes, executor pops slices. Never held
  // together with response_mutex_ (DrainComplete takes them in separate
  // scopes); the declared order matches the request pipeline direction.
  mutable Mutex queue_mutex_ SIGSUB_ACQUIRED_BEFORE(response_mutex_);
  CondVar queue_cv_;
  std::deque<Work> queue_ SIGSUB_GUARDED_BY(queue_mutex_);

  // Response queue: executor pushes, I/O thread drains (after a wakeup
  // byte). Connection state itself is touched only by the I/O thread.
  mutable Mutex response_mutex_;
  std::vector<Outbound> responses_ SIGSUB_GUARDED_BY(response_mutex_);

  // I/O-thread-only state (no locks; never touched elsewhere).
  std::map<uint64_t, std::unique_ptr<Connection>> connections_
      SIGSUB_THREAD_CONFINED(io);
  uint64_t next_conn_id_ SIGSUB_THREAD_CONFINED(io) = 1;
  int64_t drain_started_ms_ SIGSUB_THREAD_CONFINED(io) = 0;
  // First moment the drain condition held; the loop lingers kDrainLingerMs
  // past it to catch request bytes that were on the wire at drain time.
  int64_t drain_quiesce_ms_ SIGSUB_THREAD_CONFINED(io) = 0;

  // Counters (any thread).
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> requests_admitted_{0};
  std::atomic<int64_t> control_requests_{0};
  std::atomic<int64_t> shed_busy_{0};
  std::atomic<int64_t> shed_quota_{0};
  std::atomic<int64_t> shed_drain_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> idle_timeouts_{0};
  std::atomic<int64_t> slow_disconnects_{0};
  std::atomic<int64_t> alarms_pushed_{0};
  std::atomic<int64_t> persist_errors_{0};
  std::atomic<int64_t> connections_current_{0};
  int64_t started_ms_ SIGSUB_THREAD_CONFINED(init) = 0;

  // Lifecycle state, touched only by the thread driving Start()/Stop().
  std::thread io_thread_ SIGSUB_THREAD_CONFINED(lifecycle);
  std::thread executor_thread_ SIGSUB_THREAD_CONFINED(lifecycle);
  bool started_ SIGSUB_THREAD_CONFINED(lifecycle) = false;
  bool joined_ SIGSUB_THREAD_CONFINED(lifecycle) = false;
};

}  // namespace server
}  // namespace sigsub

#endif  // SIGSUB_SERVER_SERVER_H_
