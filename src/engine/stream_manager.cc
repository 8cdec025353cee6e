#include "engine/stream_manager.h"

#include <utility>

#include "common/str_util.h"

namespace sigsub {
namespace engine {

StreamManager::StreamManager(StreamManagerOptions options)
    : options_(options) {
  if (options_.max_alarms_per_stream < 1) options_.max_alarms_per_stream = 1;
}

Status StreamManager::CreateStream(const std::string& name,
                                   std::vector<double> probs,
                                   core::StreamingDetector::Options options) {
  if (name.empty()) {
    return Status::InvalidArgument("stream name must not be empty");
  }
  std::shared_ptr<const core::ChiSquareContext> context;
  {
    MutexLock lock(mutex_);
    if (streams_.contains(name)) {
      return Status::InvalidArgument(
          StrCat("stream \"", name, "\" already exists"));
    }
    auto it = contexts_.find(probs);
    if (it != contexts_.end()) context = it->second;
  }
  if (context == nullptr) {
    // Built outside the lock (quantile evaluation and validation are not
    // free); a concurrent CreateStream with the same model at worst
    // builds one redundant context, and the map keeps whichever landed
    // first.
    auto built = core::ChiSquareContext::Make(probs);
    if (!built.ok()) {
      return Status::InvalidArgument(StrCat("stream \"", name,
                                            "\": invalid model: ",
                                            built.status().message()));
    }
    context = std::make_shared<const core::ChiSquareContext>(
        std::move(built).value());
  }
  auto detector = core::StreamingDetector::Make(context, options);
  if (!detector.ok()) {
    return Status::InvalidArgument(
        StrCat("stream \"", name, "\": ", detector.status().message()));
  }
  auto stream =
      std::make_shared<Stream>(name, probs, std::move(detector).value());
  {
    MutexLock lock(mutex_);
    if (streams_.contains(name)) {
      return Status::InvalidArgument(
          StrCat("stream \"", name, "\" already exists"));
    }
    contexts_.try_emplace(std::move(probs), std::move(context));
    streams_.emplace(name, std::move(stream));
  }
  streams_created_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::shared_ptr<StreamManager::Stream> StreamManager::FindStream(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second;
}

Result<int64_t> StreamManager::Append(const std::string& name,
                                      std::span<const uint8_t> symbols) {
  SIGSUB_ASSIGN_OR_RETURN(std::vector<core::StreamingDetector::Alarm> alarms,
                          AppendCollect(name, symbols));
  return static_cast<int64_t>(alarms.size());
}

Result<std::vector<core::StreamingDetector::Alarm>>
StreamManager::AppendCollect(const std::string& name,
                             std::span<const uint8_t> symbols) {
  std::shared_ptr<Stream> stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound(StrCat("no stream named \"", name, "\""));
  }
  MutexLock lock(stream->mutex);
  auto alarms = stream->detector.TryAppendChunk(symbols);
  SIGSUB_RETURN_IF_ERROR(alarms.status());
  for (const core::StreamingDetector::Alarm& alarm : *alarms) {
    if (stream->alarms.size() >= options_.max_alarms_per_stream) {
      stream->alarms.pop_front();
      ++stream->alarms_dropped;
    }
    stream->alarms.push_back(alarm);
  }
  symbols_ingested_.fetch_add(static_cast<int64_t>(symbols.size()),
                              std::memory_order_relaxed);
  alarms_raised_.fetch_add(static_cast<int64_t>(alarms->size()),
                           std::memory_order_relaxed);
  return *std::move(alarms);
}

Result<StreamSnapshot> StreamManager::Snapshot(
    const std::string& name) const {
  std::shared_ptr<Stream> stream = FindStream(name);
  if (stream == nullptr) {
    return Status::NotFound(StrCat("no stream named \"", name, "\""));
  }
  MutexLock lock(stream->mutex);
  StreamSnapshot snapshot;
  snapshot.name = stream->name;
  snapshot.position = stream->detector.position();
  snapshot.alarms_total = stream->detector.alarms_raised();
  snapshot.alarms_dropped = stream->alarms_dropped;
  snapshot.recent_alarms.assign(stream->alarms.begin(),
                                stream->alarms.end());
  snapshot.scales = stream->detector.scales();
  auto thresholds = stream->detector.scale_thresholds();
  snapshot.thresholds.assign(thresholds.begin(), thresholds.end());
  snapshot.chi_squares = stream->detector.CurrentChiSquares();
  return snapshot;
}

Status StreamManager::CloseStream(const std::string& name) {
  {
    MutexLock lock(mutex_);
    if (streams_.erase(name) == 0) {
      return Status::NotFound(StrCat("no stream named \"", name, "\""));
    }
  }
  streams_closed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<PersistedStream> StreamManager::ExportStreams() const {
  // Snapshot the stream set first, then serialize each stream under its
  // own mutex: holding mutex_ across the per-stream copies would invert
  // the usual lock order and stall every concurrent lookup.
  std::vector<std::shared_ptr<Stream>> streams;
  {
    MutexLock lock(mutex_);
    streams.reserve(streams_.size());
    for (const auto& [unused, stream] : streams_) streams.push_back(stream);
  }
  std::vector<PersistedStream> exported;
  exported.reserve(streams.size());
  for (const std::shared_ptr<Stream>& stream : streams) {
    MutexLock lock(stream->mutex);
    PersistedStream persisted;
    persisted.name = stream->name;
    persisted.probs = stream->probs;
    persisted.options = stream->detector.options();
    persisted.state = stream->detector.SaveState();
    persisted.alarms.assign(stream->alarms.begin(), stream->alarms.end());
    persisted.alarms_dropped = stream->alarms_dropped;
    exported.push_back(std::move(persisted));
  }
  return exported;
}

Status StreamManager::RestoreStream(const PersistedStream& persisted) {
  if (persisted.alarms_dropped < 0) {
    return Status::InvalidArgument(
        StrCat("stream \"", persisted.name, "\": negative dropped-alarm "
                                            "count in snapshot"));
  }
  SIGSUB_RETURN_IF_ERROR(
      CreateStream(persisted.name, persisted.probs, persisted.options));
  std::shared_ptr<Stream> stream = FindStream(persisted.name);
  SIGSUB_CHECK(stream != nullptr);
  Status restored;
  {
    MutexLock lock(stream->mutex);
    restored = stream->detector.RestoreState(persisted.state);
    if (restored.ok()) {
      stream->alarms.assign(persisted.alarms.begin(),
                            persisted.alarms.end());
      while (stream->alarms.size() > options_.max_alarms_per_stream) {
        stream->alarms.pop_front();
      }
      stream->alarms_dropped = persisted.alarms_dropped;
    }
  }
  if (!restored.ok()) {
    // Leave no half-restored stream behind: a fresh detector with a
    // persisted name would silently present as position 0.
    (void)CloseStream(persisted.name);
    return Status::InvalidArgument(StrCat("stream \"", persisted.name,
                                          "\": ", restored.message()));
  }
  return Status::OK();
}

std::vector<std::string> StreamManager::StreamNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, unused] : streams_) names.push_back(name);
  return names;
}

StreamManagerStats StreamManager::stats() const {
  StreamManagerStats stats;
  stats.streams_created = streams_created_.load(std::memory_order_relaxed);
  stats.streams_closed = streams_closed_.load(std::memory_order_relaxed);
  stats.symbols_ingested = symbols_ingested_.load(std::memory_order_relaxed);
  stats.alarms_raised = alarms_raised_.load(std::memory_order_relaxed);
  return stats;
}

bool StreamManager::HasStream(const std::string& name) const {
  MutexLock lock(mutex_);
  return streams_.contains(name);
}

size_t StreamManager::open_stream_count() const {
  MutexLock lock(mutex_);
  return streams_.size();
}

size_t StreamManager::context_count() const {
  MutexLock lock(mutex_);
  return contexts_.size();
}

}  // namespace engine
}  // namespace sigsub
