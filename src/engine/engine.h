#ifndef SIGSUB_ENGINE_ENGINE_H_
#define SIGSUB_ENGINE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/query.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/corpus.h"
#include "engine/result_cache.h"

namespace sigsub {
namespace core {
class SuffixScan;
}  // namespace core

namespace engine {

/// The most worker threads an engine takes (EngineOptions::num_threads,
/// CLI --threads): far above any core count this runs on, and low enough
/// that a mistyped value cannot ask the OS for millions of threads.
inline constexpr int kMaxThreads = 1024;

struct EngineOptions {
  /// Worker threads for batch execution, in [0, kMaxThreads]; 0 selects
  /// the hardware concurrency.
  int num_threads = 1;
  /// Result-cache capacity in entries; 0 disables caching.
  size_t cache_capacity = 4096;
  /// In-record sharding threshold: an MSS query whose record is at least
  /// this many symbols long is split into strided shards
  /// (core::MssShardScan) that run concurrently on the pool, so one
  /// multi-megabyte record cannot pin a single worker. <= 0 disables
  /// sharding. Sharded queries return the same X² value as the sequential
  /// kernel (the witness among tied maxima may differ; see
  /// core::FindMssParallel).
  int64_t shard_min_sequence = 1 << 20;
};

/// InvalidArgument naming the field when `options` is out of range:
/// num_threads outside [0, kMaxThreads]. Engine's constructor CHECKs it;
/// callers that take the options from users validate first.
Status ValidateEngineOptions(const EngineOptions& options);

/// OK when every result succeeded, else the first failed one's status
/// as "query <i> (<kind>): <detail>", i its position in `results`: how
/// the CLI reports a batch, and the daemon each QUERY line.
Status FirstQueryError(std::span<const api::QueryResult> results);

/// Concurrent batch-mining engine: executes heterogeneous mining queries
/// (every sequence kernel — mss, topt, disjoint, threshold, minlen,
/// lenbound, arlm, agmm, blocked; multinomial or Markov null models) over
/// a corpus of sequences, each described by an api::QuerySpec.
///
/// Two things make a batch cheaper than issuing the same queries as
/// independent `FindMss`-style calls:
///
///   1. Context reuse — `seq::PrefixCounts` (O(k·n) to build, the
///      dominant fixed cost of a one-shot call) is built once per
///      distinct corpus record per batch and shared by every query on that
///      record, and one `core::ChiSquareContext` is shared per distinct
///      null model. The builds themselves run on the pool. Substrings
///      queries share a record's suffix index the same way: it is built
///      lazily by the first substrings task on the record and freed when
///      the last one finishes. Across batches the engine retains exactly
///      one index, the most recently built; a later batch reuses it only
///      for a record with the same fingerprint, the same byte pointer and
///      the same decode table, so a destroyed, moved or re-mapped corpus
///      always rebuilds. The retained index is not part of cache
///      identity or persisted state; ClearCache() drops it.
///   2. Result caching — completed queries are stored in an LRU cache
///      keyed by (sequence FNV-1a fingerprint, FNV-1a of the query's
///      canonical serialization bytes — api::FingerprintQuery), so
///      repeated queries against hot sequences are served in O(1) without
///      rescanning. The cache is consulted before any PrefixCounts are
///      built, so a fully-warm batch skips the builds too. The cache
///      persists across batches for the lifetime of the engine.
///
/// Results are bit-identical to the direct kernel calls: each query runs
/// the same sequential kernel with the same summation order, whatever
/// `num_threads` is — parallelism is across queries, not within them. The
/// one exception is an MSS query on a record at least
/// `shard_min_sequence` symbols long, which is split across the pool
/// via core::MssShardScan: its X² value is still bit-identical to the
/// sequential kernel's, but when several substrings tie at the maximum
/// the reported witness may differ (the parallel-scan contract). The
/// second is the suffix path of a substrings query on a record of at
/// least 128 Ki symbols: core::SuffixScan builds its index and sweeps it
/// on transient pools of its own, with up to
/// std::thread::hardware_concurrency() threads whatever `num_threads` is,
/// and the result is the same as a serial build and sweep's
/// (core/suffix_scan.h).
///
/// Thread safety: one batch at a time per engine (calls from multiple
/// threads must be serialized by the caller); the cache itself is
/// thread-safe.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Validates every query (sequence index in range, model compatible
  /// with the corpus alphabet, kind-specific parameter ranges), then
  /// executes the valid ones as one batch; `results[i]` answers
  /// `queries[i]`. An invalid query gets an InvalidArgument naming the
  /// field in its `status` and is skipped: no fingerprint, cache lookup or
  /// insert, no kernel. Queries with identical cache keys run their kernel
  /// once; the duplicates get the same payload and count as cache hits.
  /// The outer Result would fail the batch as a whole; no such failure
  /// exists today, so it is always OK.
  Result<std::vector<api::QueryResult>> ExecuteQueries(
      const Corpus& corpus, const std::vector<api::QuerySpec>& queries);

  int num_threads() const { return pool_.num_threads(); }
  CacheStats cache_stats() const { return cache_.stats(); }
  size_t cache_size() const { return cache_.size(); }
  size_t cache_capacity() const { return cache_.capacity(); }
  /// Clears the result cache and drops the retained suffix index.
  void ClearCache();
  /// The result cache itself (thread-safe) — persist/cache_store.{h,cc}
  /// exports it on drain and imports it on restart so the warm cache
  /// survives a daemon restart.
  ResultCache& result_cache() { return cache_; }
  const ResultCache& result_cache() const { return cache_; }

  /// Lifetime execution counters: valid queries, and batches holding at
  /// least one. Atomic reads — safe from any thread, including
  /// concurrently with an executing batch.
  int64_t queries_executed() const {
    return queries_executed_.load(std::memory_order_relaxed);
  }
  int64_t batches_executed() const {
    return batches_executed_.load(std::memory_order_relaxed);
  }
  /// Suffix indexes built for substrings queries (retained-index hits
  /// build none). Not part of the STATS line.
  int64_t suffix_index_builds() const {
    return suffix_index_builds_.load(std::memory_order_relaxed);
  }

 private:
  /// The retained suffix index and what it was built over.
  struct RetainedIndex {
    uint64_t fingerprint = 0;
    const uint8_t* bytes = nullptr;
    std::array<uint8_t, 256> decode{};
    std::shared_ptr<const core::SuffixScan> scan;
  };

  /// The suffix index over `bytes` — decoded symbols when `decode` is
  /// null, raw bytes read through `*decode` otherwise: the retained index
  /// when it was built over the same record, else a fresh build, which
  /// then becomes the retained one. Safe to call from pool tasks.
  std::shared_ptr<const core::SuffixScan> SuffixIndexFor(
      uint64_t fingerprint, std::span<const uint8_t> bytes,
      const std::array<uint8_t, 256>* decode, int alphabet_size);

  ResultCache cache_;
  ThreadPool pool_;
  const int64_t shard_min_sequence_;
  std::atomic<int64_t> queries_executed_{0};
  std::atomic<int64_t> batches_executed_{0};
  std::atomic<int64_t> suffix_index_builds_{0};
  Mutex index_mu_;
  RetainedIndex retained_index_ SIGSUB_GUARDED_BY(index_mu_);
  // Debug enforcement of the one-batch-at-a-time contract above: set for
  // the duration of ExecuteQueries, SIGSUB_DCHECKed against
  // reentry. Atomic (not GUARDED_BY a mutex) because the contract is
  // exactly that there is no concurrent batch to exclude.
  std::atomic<bool> batch_active_{false};
};

}  // namespace engine
}  // namespace sigsub

#endif  // SIGSUB_ENGINE_ENGINE_H_
