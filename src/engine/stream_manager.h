#ifndef SIGSUB_ENGINE_STREAM_MANAGER_H_
#define SIGSUB_ENGINE_STREAM_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/streaming.h"

namespace sigsub {
namespace engine {

struct StreamManagerOptions {
  /// Alarms retained per stream (oldest evicted first); snapshots report
  /// how many were dropped. Must be >= 1.
  size_t max_alarms_per_stream = 256;
};

/// Monotonic counters over the manager's lifetime (thread-safe reads).
struct StreamManagerStats {
  int64_t streams_created = 0;
  int64_t streams_closed = 0;
  int64_t symbols_ingested = 0;
  int64_t alarms_raised = 0;
};

/// Point-in-time view of one stream.
struct StreamSnapshot {
  std::string name;
  int64_t position = 0;      // Symbols consumed.
  int64_t alarms_total = 0;  // Alarms raised over the stream's lifetime.
  int64_t alarms_dropped = 0;  // Evicted from the bounded log.
  std::vector<core::StreamingDetector::Alarm> recent_alarms;  // Oldest first.
  std::vector<int64_t> scales;
  std::vector<double> thresholds;    // Parallel to scales.
  std::vector<double> chi_squares;   // Current per-scale X².
};

/// Serializable image of one stream — everything RestoreStream needs to
/// rebuild it bit-identically: the null model and detector options (the
/// derived state Make() recomputes), the detector's mutable state, and
/// the bounded alarm log. persist/snapshot.{h,cc} encodes this struct.
struct PersistedStream {
  std::string name;
  std::vector<double> probs;
  core::StreamingDetector::Options options;
  core::StreamingDetector::State state;
  std::vector<core::StreamingDetector::Alarm> alarms;  // Oldest first.
  int64_t alarms_dropped = 0;
};

/// Many concurrent monitored streams over shared infrastructure — the
/// online counterpart of engine::Engine. Each stream is a named
/// core::StreamingDetector with a bounded alarm log; ingestion is chunked
/// (StreamingDetector::AppendChunk) and runs on the caller's thread. The
/// manager starts no threads of its own. Mirroring the Engine's
/// context-reuse design, one core::ChiSquareContext is built per distinct
/// null model (keyed by the probability vector) and shared by every
/// stream monitored under that model.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Appends to one stream are serialized by a per-stream mutex, so
/// concurrent appends to it apply one whole chunk at a time, in the
/// order the callers take the mutex; appends to distinct streams from
/// distinct threads proceed in parallel. An append that races
/// CloseStream either succeeds, ordered before the close, or reports
/// NotFound.
class StreamManager {
 public:
  explicit StreamManager(StreamManagerOptions options = {});

  /// Creates stream `name` monitored under the multinomial model `probs`
  /// (validated; must sum to 1). Fails with InvalidArgument if the name
  /// is already in use or the detector options are invalid.
  Status CreateStream(const std::string& name, std::vector<double> probs,
                      core::StreamingDetector::Options options = {});

  /// Appends `symbols` to stream `name` synchronously; returns the number
  /// of alarms the chunk raised. NotFound for unknown streams;
  /// InvalidArgument (stream unchanged) when a symbol is outside the
  /// stream's alphabet.
  Result<int64_t> Append(const std::string& name,
                         std::span<const uint8_t> symbols);

  /// Like Append, but returns the alarms themselves (in raise order)
  /// instead of just their count — the server's ingestion path, which
  /// pushes each alarm's details to subscribed connections.
  Result<std::vector<core::StreamingDetector::Alarm>> AppendCollect(
      const std::string& name, std::span<const uint8_t> symbols);

  /// Snapshot of one stream's state (position, alarm log tail, per-scale
  /// X² and thresholds). NotFound for unknown streams.
  Result<StreamSnapshot> Snapshot(const std::string& name) const;

  /// Removes the stream. NotFound for unknown streams.
  Status CloseStream(const std::string& name);

  /// Exports every open stream for persistence, sorted by name. Each
  /// stream's image is internally consistent (taken under its mutex),
  /// but cross-stream consistency is the caller's problem: for a
  /// point-in-time snapshot, quiesce ingestion first (the server calls
  /// this from the executor thread between slices, which owns all
  /// stream mutations).
  std::vector<PersistedStream> ExportStreams() const;

  /// Recreates one exported stream: CreateStream(name, probs, options)
  /// followed by a validated detector-state restore and alarm-log
  /// adoption. Fails (and removes the half-created stream) if the name
  /// is taken, the options are invalid, or the state fails
  /// StreamingDetector::RestoreState validation — a corrupt snapshot is
  /// named, never silently adopted.
  Status RestoreStream(const PersistedStream& stream);

  /// Names of all open streams, sorted.
  std::vector<std::string> StreamNames() const;

  /// True while stream `name` is open. Cheap (manager mutex only) — the
  /// server's SUBSCRIBE validation.
  bool HasStream(const std::string& name) const;

  /// Number of currently open streams.
  size_t open_stream_count() const;

  StreamManagerStats stats() const;

  /// Distinct null models the manager has built a shared context for.
  size_t context_count() const;

 private:
  struct Stream {
    Stream(std::string stream_name, std::vector<double> stream_probs,
           core::StreamingDetector d)
        : name(std::move(stream_name)),
          probs(std::move(stream_probs)),
          detector(std::move(d)) {}

    const std::string name;
    // The null model the stream was created under — what a snapshot
    // must persist to rebuild the shared context on restore.
    const std::vector<double> probs;
    mutable Mutex mutex;  // Serializes detector access.
    core::StreamingDetector detector SIGSUB_GUARDED_BY(mutex);
    // Bounded log.
    std::deque<core::StreamingDetector::Alarm> alarms SIGSUB_GUARDED_BY(mutex);
    int64_t alarms_dropped SIGSUB_GUARDED_BY(mutex) = 0;
  };

  /// Looks up a stream under mutex_; the returned shared_ptr keeps it
  /// alive even if CloseStream races.
  std::shared_ptr<Stream> FindStream(const std::string& name) const
      SIGSUB_EXCLUDES(mutex_);

  StreamManagerOptions options_ SIGSUB_THREAD_CONFINED(init);

  // Canonical order: the manager map lock comes before any per-stream
  // lock (lookups resolve the shared_ptr under mutex_, then operate on
  // the stream under its own mutex — ExportStreams documents why the
  // two are never actually nested).
  // sigsub-lint: order StreamManager::mutex_ < StreamManager::Stream::mutex
  mutable Mutex mutex_;  // Guards streams_ and contexts_.
  std::map<std::string, std::shared_ptr<Stream>> streams_
      SIGSUB_GUARDED_BY(mutex_);
  // One shared evaluation context per distinct model (Engine's
  // context-reuse design, persisted for the manager's lifetime).
  std::map<std::vector<double>, std::shared_ptr<const core::ChiSquareContext>>
      contexts_ SIGSUB_GUARDED_BY(mutex_);

  std::atomic<int64_t> streams_created_{0};
  std::atomic<int64_t> streams_closed_{0};
  std::atomic<int64_t> symbols_ingested_{0};
  std::atomic<int64_t> alarms_raised_{0};
};

}  // namespace engine
}  // namespace sigsub

#endif  // SIGSUB_ENGINE_STREAM_MANAGER_H_
