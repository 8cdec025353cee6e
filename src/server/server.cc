#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/posix_io.h"
#include "common/str_util.h"
#include "engine/engine_stats.h"

namespace sigsub {
namespace server {
namespace {

/// Poll tick: the upper bound on how stale idle-timeout and drain-budget
/// checks can be. Everything latency-critical is woken explicitly via the
/// self-pipe, so this only paces housekeeping.
constexpr int kPollTickMs = 50;

/// After the drain condition first holds, the I/O loop lingers this long
/// before closing: request bytes already on the wire when the drain
/// signal landed are still read and answered (with EDRAIN) instead of
/// being obliterated by an RST from closing a socket with unread input.
constexpr int64_t kDrainLingerMs = 2 * kPollTickMs;

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(
        StrCat("fcntl(O_NONBLOCK): ", std::strerror(errno)));
  }
  return Status::OK();
}

/// The reply line of a failed executor op: `status` under its wire code.
std::string ErrorReply(const Status& status) {
  return protocol::FormatError(protocol::ErrorCodeForStatus(status),
                               status.message());
}

}  // namespace

/// Per-connection state. Touched ONLY by the I/O thread (the executor
/// communicates through the response queue), so it needs no locking and
/// stays data-race-free by construction.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string rbuf;
  std::string wbuf;
  int inflight = 0;    // Admitted engine-bound requests not yet replied.
  bool closing = false;  // Close once wbuf is flushed and inflight == 0.
  bool discard_input = false;  // Post-ETOOBIG: stop parsing this client.
  int64_t last_activity_ms = 0;
  std::set<std::string> subscriptions;
};

Server::Server(engine::Corpus corpus, ServerOptions options)
    : corpus_(std::move(corpus)),
      options_(std::move(options)),
      engine_(options_.engine) {
  if (options_.batch_max < 1) options_.batch_max = 1;
  if (options_.max_inflight_per_client < 1) {
    options_.max_inflight_per_client = 1;
  }
}

Status Server::Start() {
  IgnoreSigpipe();  // A dying client must not kill the daemon.

  // Recovery precedes everything: both threads are born into a world
  // where the stream manager already holds the replayed state, so no
  // synchronization is needed. A corrupt snapshot fails Start() with
  // its named Status — refusing to serve beats silently serving a
  // subset of the durable state.
  if (!options_.state_dir.empty() && state_ == nullptr) {
    SIGSUB_ASSIGN_OR_RETURN(
        persist::StateStore store,
        persist::StateStore::Open(
            options_.state_dir,
            persist::StateStoreOptions{
                .fsync_policy = options_.fsync_policy,
                .snapshot_interval_ms = options_.snapshot_interval_ms,
            },
            &streams_, &engine_.result_cache(), &recovery_));
    state_ = std::make_unique<persist::StateStore>(std::move(store));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrCat("not an IPv4 address: \"", options_.host, "\""));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IOError(StrCat("bind ", options_.host, ":",
                                           options_.port, ": ",
                                           std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status = Status::IOError(StrCat("listen: ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  SIGSUB_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    Status status = Status::IOError(StrCat("pipe: ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  wakeup_read_fd_ = pipe_fds[0];
  wakeup_write_fd_ = pipe_fds[1];
  SIGSUB_RETURN_IF_ERROR(SetNonBlocking(wakeup_read_fd_));
  SIGSUB_RETURN_IF_ERROR(SetNonBlocking(wakeup_write_fd_));

  started_ms_ = MonotonicMillis();
  io_thread_ = std::thread([this] { IoLoop(); });
  executor_thread_ = std::thread([this] { ExecutorLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::RequestDrain() {
  // Async-signal-safe: one atomic store and one write(2). Everything
  // else (closing the listener, refusing work, flushing) happens on the
  // I/O thread when it observes the flag.
  draining_.store(true, std::memory_order_release);
  Wakeup();
}

void Server::Wakeup() {
  if (wakeup_write_fd_ < 0) return;
  char byte = 1;
  for (;;) {
    // RawWrite stays async-signal-safe (atomics only in its shim
    // check), which this path requires: serve installs RequestDrain as
    // the SIGTERM action.
    ssize_t n = RawWrite(wakeup_write_fd_, &byte, 1);
    if (n >= 0 || errno != EINTR) break;  // A full pipe already wakes.
  }
}

void Server::Join() {
  if (!started_ || joined_) return;
  if (io_thread_.joinable()) io_thread_.join();
  if (executor_thread_.joinable()) executor_thread_.join();
  joined_ = true;
}

Server::~Server() {
  if (started_ && !joined_) {
    RequestDrain();
    Join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wakeup_read_fd_ >= 0) ::close(wakeup_read_fd_);
  if (wakeup_write_fd_ >= 0) ::close(wakeup_write_fd_);
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_current =
      connections_current_.load(std::memory_order_relaxed);
  stats.requests_admitted =
      requests_admitted_.load(std::memory_order_relaxed);
  stats.control_requests = control_requests_.load(std::memory_order_relaxed);
  stats.shed_busy = shed_busy_.load(std::memory_order_relaxed);
  stats.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  stats.shed_drain = shed_drain_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.idle_timeouts = idle_timeouts_.load(std::memory_order_relaxed);
  stats.slow_disconnects =
      slow_disconnects_.load(std::memory_order_relaxed);
  stats.alarms_pushed = alarms_pushed_.load(std::memory_order_relaxed);
  stats.persist_errors = persist_errors_.load(std::memory_order_relaxed);
  stats.uptime_ms = started_ms_ == 0 ? 0 : MonotonicMillis() - started_ms_;
  return stats;
}

// ---------------------------------------------------------------- executor

void Server::ExecutorLoop() {
  for (;;) {
    std::vector<Work> slice;
    queue_mutex_.Lock();
    while (!stop_executor_.load(std::memory_order_acquire) &&
           queue_.empty()) {
      queue_cv_.Wait(queue_mutex_);
    }
    if (queue_.empty()) {  // stop requested, nothing admitted left.
      queue_mutex_.Unlock();
      if (state_ != nullptr) {
        // Snapshot-on-drain: every admitted op has executed, so this is
        // a perfectly quiescent point in time; the journal truncates to
        // empty and the warm result cache goes to disk alongside it.
        if (!state_->Snapshot(streams_, &engine_.result_cache()).ok()) {
          persist_errors_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    if (options_.executor_hook) {
      // Test seam: runs unlocked so a blocking hook freezes execution
      // without freezing admission — saturation tests become
      // deterministic.
      queue_mutex_.Unlock();
      options_.executor_hook();
      queue_mutex_.Lock();
    }
    size_t take = std::min(queue_.size(), options_.batch_max);
    slice.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      slice.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_mutex_.Unlock();
    ExecuteSlice(std::move(slice));
    if (state_ != nullptr) {
      // Between slices no stream mutation is in flight (this thread is
      // the only mutator), so the periodic snapshot sees a consistent
      // point in time. Failures are counted, not fatal: the journal
      // still has every record the snapshot would have absorbed.
      if (!state_->MaybeSnapshot(streams_, &engine_.result_cache()).ok()) {
        persist_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void Server::ExecuteSlice(std::vector<Work> slice) {
  std::vector<std::string> replies(slice.size());
  std::vector<Outbound> outbound;

  // Hoist every QUERY in the slice into one engine batch: concurrent
  // clients querying the same records share PrefixCounts builds and cache
  // entries within the call — the shared-daemon payoff. Each QUERY line
  // answers from its own status, as its client's batch of one: an invalid
  // query fails only itself, with the same text wherever it sits.
  std::vector<size_t> query_pos;
  std::vector<api::QuerySpec> specs;
  for (size_t i = 0; i < slice.size(); ++i) {
    if (slice[i].request.kind == protocol::CommandKind::kQuery) {
      query_pos.push_back(i);
      specs.push_back(slice[i].request.query);
    }
  }
  if (!specs.empty()) {
    auto batch = engine_.ExecuteQueries(corpus_, specs);
    for (size_t j = 0; j < query_pos.size(); ++j) {
      Status status = batch.status();
      if (status.ok()) status = engine::FirstQueryError({&(*batch)[j], 1});
      replies[query_pos[j]] =
          status.ok() ? StrCat("OK ", protocol::FormatQueryResult(
                                          (*batch)[j],
                                          options_.max_result_rows))
                      : ErrorReply(status);
    }
  }

  // Journal-before-apply for CREATE, APPEND and CLOSE: once a client
  // reads "OK", the op is durable per the fsync policy. On a journal
  // failure the op is NOT applied — the client sees EPERSIST and
  // in-memory state still matches what recovery would rebuild from disk,
  // and this returns false.
  auto journal = [&](size_t i, auto&& record) {
    if (state_ == nullptr) return true;
    const Status journaled = record();
    if (journaled.ok()) return true;
    persist_errors_.fetch_add(1, std::memory_order_relaxed);
    replies[i] = protocol::FormatError(protocol::ErrorCode::kPersist,
                                       journaled.message());
    return false;
  };

  for (size_t i = 0; i < slice.size(); ++i) {
    const protocol::Request& request = slice[i].request;
    switch (request.kind) {
      case protocol::CommandKind::kQuery:
        break;  // Replied above.
      case protocol::CommandKind::kStreamCreate: {
        if (!journal(i, [&] {
              return state_->RecordCreate(request.stream, request.probs,
                                          request.detector);
            })) {
          break;
        }
        Status status = streams_.CreateStream(request.stream, request.probs,
                                              request.detector);
        replies[i] = status.ok() ? StrCat("OK created ", request.stream)
                                 : ErrorReply(status);
        break;
      }
      case protocol::CommandKind::kStreamAppend: {
        if (!journal(i, [&] {
              return state_->RecordAppend(request.stream, request.symbols);
            })) {
          break;
        }
        auto alarms = streams_.AppendCollect(request.stream, request.symbols);
        if (!alarms.ok()) {
          replies[i] = ErrorReply(alarms.status());
          break;
        }
        replies[i] = StrCat("OK alarms=", alarms->size());
        for (const core::StreamingDetector::Alarm& alarm : *alarms) {
          // conn_id 0 = broadcast; the I/O thread owns the subscriber
          // map, so fan-out resolves there.
          outbound.push_back(Outbound{
              0, protocol::FormatAlarm(request.stream, alarm), false,
              request.stream});
        }
        break;
      }
      case protocol::CommandKind::kStreamSnapshot: {
        auto snapshot = streams_.Snapshot(request.stream);
        replies[i] = snapshot.ok()
                         ? StrCat("OK ", protocol::FormatSnapshot(*snapshot))
                         : ErrorReply(snapshot.status());
        break;
      }
      case protocol::CommandKind::kStreamClose: {
        if (!journal(i, [&] { return state_->RecordClose(request.stream); })) {
          break;
        }
        Status status = streams_.CloseStream(request.stream);
        replies[i] = status.ok() ? StrCat("OK closed ", request.stream)
                                 : ErrorReply(status);
        break;
      }
      default:
        // Control commands never reach the queue.
        replies[i] = protocol::FormatError(protocol::ErrorCode::kInternal,
                                           "control command in work queue");
        break;
    }
  }

  std::vector<Outbound> lines;
  lines.reserve(slice.size() + outbound.size());
  for (size_t i = 0; i < slice.size(); ++i) {
    lines.push_back(
        Outbound{slice[i].conn_id, std::move(replies[i]), true, {}});
  }
  for (Outbound& push : outbound) lines.push_back(std::move(push));
  PostOutbound(std::move(lines));
}

void Server::PostOutbound(std::vector<Outbound> lines) {
  {
    MutexLock lock(response_mutex_);
    for (Outbound& line : lines) responses_.push_back(std::move(line));
  }
  Wakeup();
}

// --------------------------------------------------------------- I/O loop

void Server::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // Parallel to fds: conn id or 0.
  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    const int64_t now = MonotonicMillis();

    if (draining && listen_fd_ >= 0) {
      // Adopt connections already through the TCP handshake first:
      // closing the listener resets its backlog, and a client that
      // connected before the drain signal deserves EDRAIN replies, not a
      // reset. Only then stop accepting.
      AcceptPending(now);
      ::close(listen_fd_);
      listen_fd_ = -1;
      drain_started_ms_ = now;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{wakeup_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [id, conn] : connections_) {
      short events = conn->discard_input ? 0 : POLLIN;
      if (!conn->wbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    int ready = ::poll(fds.data(), fds.size(), kPollTickMs);
    if (ready < 0 && errno != EINTR) break;  // Unrecoverable.

    // Drain the wakeup pipe (edge payloads carry no data beyond "look
    // at your queues").
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wakeup_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }

    DrainResponseQueue();

    if (listen_fd_ >= 0) {
      for (size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].fd == listen_fd_ && (fds[i].revents & POLLIN)) {
          AcceptPending(now);
        }
      }
    }

    for (size_t i = 0; i < fds.size(); ++i) {
      uint64_t id = fd_conn[i];
      if (id == 0) continue;
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Closed this iteration.
      Connection& conn = *it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Peer is gone; its in-flight replies (if any) are dropped at
        // delivery time but still complete their accounting.
        CloseConnection(id);
        continue;
      }
      if (fds[i].revents & POLLIN) ReadFromConnection(conn, now);
      if (connections_.find(id) == connections_.end()) continue;
      if (!conn.wbuf.empty()) FlushWrites(conn);
    }

    // Close-after-flush connections (QUIT, ETIMEOUT, ETOOBIG).
    std::vector<uint64_t> finished;
    for (const auto& [id, conn] : connections_) {
      if (conn->closing && conn->wbuf.empty() && conn->inflight == 0) {
        finished.push_back(id);
      }
    }
    for (uint64_t id : finished) CloseConnection(id);

    if (!draining && options_.idle_timeout_ms > 0) HarvestIdle(now);

    if (draining) {
      if (now - drain_started_ms_ >= options_.drain_timeout_ms) break;
      if (DrainComplete()) {
        // Quiet — but bytes the clients wrote before the drain signal may
        // still be in flight. Linger a couple of ticks so they are read
        // and answered (EDRAIN) rather than reset away; any such arrival
        // makes DrainComplete false again and restarts the clock.
        if (drain_quiesce_ms_ == 0) drain_quiesce_ms_ = now;
        if (now - drain_quiesce_ms_ >= kDrainLingerMs) break;
      } else {
        drain_quiesce_ms_ = 0;
      }
    }
  }

  // Drained (or out of budget): shut the executor down — the queue is
  // empty on the graceful path, so no admitted request is abandoned.
  stop_executor_.store(true, std::memory_order_release);
  queue_cv_.NotifyAll();
  std::vector<uint64_t> remaining;
  for (const auto& [id, conn] : connections_) remaining.push_back(id);
  for (uint64_t id : remaining) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    // Half-close + consume: FIN tells the client no more replies are
    // coming, and reading out whatever it already sent prevents the
    // kernel from turning the close into an RST that would destroy
    // replies still sitting in the client's receive buffer.
    ::shutdown(it->second->fd, SHUT_WR);
    char sink[1 << 12];
    while (::read(it->second->fd, sink, sizeof(sink)) > 0) {
    }
    CloseConnection(id);
  }
}

void Server::AcceptPending(int64_t now_ms) {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (no more pending) or transient accept failure.
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_current_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Over the connection cap: say why, then hang up. Best-effort —
      // the fd is still blocking here, but one short write to a fresh
      // socket buffer cannot block.
      std::string reply =
          protocol::FormatError(protocol::ErrorCode::kBusy, "server full") +
          "\n";
      (void)WriteFdAll(fd, reply);
      ::close(fd);
      shed_busy_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity_ms = now_ms;
    connections_current_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace(conn->id, std::move(conn));
  }
}

void Server::ReadFromConnection(Connection& conn, int64_t now_ms) {
  const uint64_t id = conn.id;
  char buffer[1 << 14];
  for (;;) {
    ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn.rbuf.append(buffer, static_cast<size_t>(n));
      conn.last_activity_ms = now_ms;
      continue;
    }
    if (n == 0) {  // EOF.
      CloseConnection(conn.id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn.id);
    return;
  }

  bool too_big = false;
  while (!conn.discard_input) {
    std::optional<std::string> line = protocol::ExtractLine(&conn.rbuf);
    if (!line.has_value()) break;
    if (line->empty()) continue;  // Blank lines are keep-alive no-ops.
    if (line->size() > options_.max_line_bytes) {
      too_big = true;  // A complete line can still be over budget.
      break;
    }
    HandleLine(conn, *line, now_ms);
    if (!connections_.contains(id)) return;
  }
  if (!conn.discard_input &&
      (too_big || conn.rbuf.size() > options_.max_line_bytes)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (!QueueReply(conn,
                    protocol::FormatError(
                        protocol::ErrorCode::kTooBig,
                        StrCat("request line exceeds ",
                               options_.max_line_bytes,
                               " bytes; closing")))) {
      return;
    }
    conn.rbuf.clear();
    conn.discard_input = true;
    conn.closing = true;
  }
}

void Server::HandleLine(Connection& conn, const std::string& line,
                        int64_t now_ms) {
  (void)now_ms;
  auto parsed = protocol::ParseRequest(line);
  if (!parsed.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    QueueReply(conn, protocol::FormatError(protocol::ErrorCode::kProto,
                                           parsed.status().message()));
    return;
  }
  protocol::Request& request = *parsed;
  if (!protocol::IsEngineBound(request.kind)) {
    control_requests_.fetch_add(1, std::memory_order_relaxed);
    HandleControl(conn, request);
    return;
  }

  // Admission, most-specific refusal first: a draining server sheds
  // everything (EDRAIN), a client over its own cap must read its replies
  // (EQUOTA), a full queue sheds globally (EBUSY). Each code tells the
  // client a different recovery story — see protocol.h.
  if (draining_.load(std::memory_order_acquire)) {
    shed_drain_.fetch_add(1, std::memory_order_relaxed);
    QueueReply(conn, protocol::FormatError(protocol::ErrorCode::kDrain,
                                           "server is draining"));
    return;
  }
  if (conn.inflight >= options_.max_inflight_per_client) {
    shed_quota_.fetch_add(1, std::memory_order_relaxed);
    QueueReply(conn,
               protocol::FormatError(
                   protocol::ErrorCode::kQuota,
                   StrCat("connection in-flight cap (",
                          options_.max_inflight_per_client,
                          ") reached; read replies before sending more")));
    return;
  }
  {
    MutexLock lock(queue_mutex_);
    if (queue_.size() >= options_.max_queue) {
      shed_busy_.fetch_add(1, std::memory_order_relaxed);
      QueueReply(conn, protocol::FormatError(
                           protocol::ErrorCode::kBusy,
                           "admission queue full; retry with backoff"));
      return;
    }
    queue_.push_back(Work{conn.id, std::move(request)});
  }
  ++conn.inflight;
  inflight_total_.fetch_add(1, std::memory_order_relaxed);
  requests_admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.NotifyOne();
}

void Server::HandleControl(Connection& conn,
                           const protocol::Request& request) {
  switch (request.kind) {
    case protocol::CommandKind::kPing:
      QueueReply(conn, "OK pong");
      break;
    case protocol::CommandKind::kHealth:
      QueueReply(conn,
                 StrCat("OK status=",
                        draining_.load(std::memory_order_acquire)
                            ? "draining"
                            : "serving",
                        " uptime_ms=", MonotonicMillis() - started_ms_));
      break;
    case protocol::CommandKind::kStats:
      QueueReply(conn, StrCat("OK ", StatsReplyPayload()));
      break;
    case protocol::CommandKind::kSubscribe:
      if (!streams_.HasStream(request.stream)) {
        QueueReply(conn, protocol::FormatError(
                             protocol::ErrorCode::kNotFound,
                             StrCat("no stream named \"", request.stream,
                                    "\"")));
        break;
      }
      conn.subscriptions.insert(request.stream);
      QueueReply(conn, StrCat("OK subscribed ", request.stream));
      break;
    case protocol::CommandKind::kUnsubscribe:
      conn.subscriptions.erase(request.stream);
      QueueReply(conn, StrCat("OK unsubscribed ", request.stream));
      break;
    case protocol::CommandKind::kQuit:
      if (!QueueReply(conn, "OK bye")) break;
      conn.discard_input = true;
      conn.closing = true;  // Closes once replies (and wbuf) drain.
      break;
    default:
      QueueReply(conn, protocol::FormatError(protocol::ErrorCode::kInternal,
                                             "unroutable control command"));
      break;
  }
}

std::string Server::StatsReplyPayload() const {
  size_t queue_depth;
  {
    MutexLock lock(queue_mutex_);
    queue_depth = queue_.size();
  }
  ServerStats s = stats();
  return StrCat(
      "uptime_ms=", s.uptime_ms, " conns=", s.connections_current,
      " accepted=", s.connections_accepted, " admitted=", s.requests_admitted,
      " control=", s.control_requests, " queue_depth=", queue_depth,
      " inflight=", inflight_total_.load(std::memory_order_relaxed),
      " shed_busy=", s.shed_busy, " shed_quota=", s.shed_quota,
      " shed_drain=", s.shed_drain, " proto_errors=", s.protocol_errors,
      " idle_timeouts=", s.idle_timeouts,
      " slow_disconnects=", s.slow_disconnects,
      " alarms_pushed=", s.alarms_pushed,
      " persist_errors=", s.persist_errors, " ",
      engine::FormatEngineStats(
          engine::CollectEngineStats(&engine_, &streams_)));
}

bool Server::QueueReply(Connection& conn, std::string line) {
  const uint64_t id = conn.id;
  conn.wbuf += line;
  conn.wbuf += '\n';
  if (conn.wbuf.size() > options_.max_write_buffer) {
    // A consumer this far behind is holding server memory hostage;
    // disconnecting is the bounded-memory guarantee.
    slow_disconnects_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(id);
    return false;
  }
  FlushWrites(conn);
  return connections_.contains(id);
}

void Server::FlushWrites(Connection& conn) {
  while (!conn.wbuf.empty()) {
    ssize_t n = RawWrite(conn.fd, conn.wbuf.data(), conn.wbuf.size());
    if (n > 0) {
      conn.wbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConnection(conn.id);  // EPIPE and friends.
    return;
  }
}

void Server::DrainResponseQueue() {
  std::vector<Outbound> batch;
  {
    MutexLock lock(response_mutex_);
    batch.swap(responses_);
  }
  for (Outbound& out : batch) {
    if (out.conn_id == 0) {
      // Alarm broadcast: deliver to every connection subscribed to the
      // stream (the subscriber map lives here, on the I/O thread).
      // Targets are collected first — QueueReply can close a slow
      // connection, which would invalidate a live map iterator.
      std::vector<uint64_t> targets;
      for (const auto& [id, conn] : connections_) {
        if (conn->subscriptions.contains(out.stream)) targets.push_back(id);
      }
      for (uint64_t id : targets) {
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        alarms_pushed_.fetch_add(1, std::memory_order_relaxed);
        QueueReply(*it->second, out.line);
      }
      continue;
    }
    if (out.completes_inflight) {
      inflight_total_.fetch_sub(1, std::memory_order_relaxed);
    }
    auto it = connections_.find(out.conn_id);
    if (it == connections_.end()) continue;  // Client left; reply evaporates.
    if (out.completes_inflight) --it->second->inflight;
    QueueReply(*it->second, std::move(out.line));
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::close(it->second->fd);
  connections_.erase(it);
  connections_current_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::HarvestIdle(int64_t now_ms) {
  std::vector<uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn->closing || conn->inflight > 0 || !conn->wbuf.empty()) {
      continue;  // Waiting on us (or on flushing) is not idling.
    }
    if (now_ms - conn->last_activity_ms >= options_.idle_timeout_ms) {
      idle.push_back(id);
    }
  }
  for (uint64_t id : idle) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
    if (!QueueReply(*it->second,
                    protocol::FormatError(protocol::ErrorCode::kTimeout,
                                          "idle timeout; closing"))) {
      continue;
    }
    it = connections_.find(id);
    if (it == connections_.end()) continue;
    it->second->discard_input = true;
    it->second->closing = true;
  }
}

bool Server::DrainComplete() const {
  if (inflight_total_.load(std::memory_order_acquire) != 0) return false;
  {
    MutexLock lock(queue_mutex_);
    if (!queue_.empty()) return false;
  }
  {
    MutexLock lock(response_mutex_);
    if (!responses_.empty()) return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (!conn->wbuf.empty()) return false;
  }
  return true;
}

}  // namespace server
}  // namespace sigsub
