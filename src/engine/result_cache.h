#ifndef SIGSUB_ENGINE_RESULT_CACHE_H_
#define SIGSUB_ENGINE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/scan_types.h"

namespace sigsub {
namespace engine {

/// Cache key for a mining query: sequence content fingerprint (FNV-1a)
/// plus the FNV-1a digest of the query's canonical serialization bytes
/// minus the sequence index (api::FingerprintQuery — kind, parameters and
/// model in one canonical byte stream). Two queries with the same key
/// compute bit-identical results, so the cache can serve repeats without
/// touching the kernels.
///
/// The key is the fingerprints alone — the original sequence/query bytes
/// are not stored, so a 64-bit FNV-1a collision would silently serve the
/// colliding query's results. FNV-1a is not collision-resistant against
/// adversarial input; do not expose a shared cache to untrusted corpora
/// (disable with cache_capacity = 0 in that setting).
struct CacheKey {
  uint64_t sequence_fp = 0;
  uint64_t query_fp = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    // The components are already FNV-1a digests; mix them with a distinct
    // odd multiplier so permuted components do not collide.
    uint64_t h = key.sequence_fp;
    h = h * 0x9e3779b97f4a7c15ULL + key.query_fp;
    return static_cast<size_t>(h);
  }
};

/// The kernel output stored per cache entry: everything a QueryResult
/// payload needs except the per-query identity fields. `counts`/`p_values` are populated
/// only by substrings queries (parallel to `substrings`; empty for every
/// other kind).
struct CachedResult {
  std::vector<core::Substring> substrings;
  std::vector<int64_t> counts;
  std::vector<double> p_values;
  core::Substring best;
  int64_t match_count = 0;
};

/// One exported cache entry — persist/cache_store.{h,cc} serializes a
/// vector of these (MRU first) for the disk-backed cache tier.
struct CacheEntry {
  CacheKey key;
  CachedResult value;
};

/// Monotonic counters; snapshot via ResultCache::stats().
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;

  int64_t lookups() const { return hits + misses; }
};

/// Thread-safe LRU cache of job results, keyed by CacheKey. Sized in
/// entries; a capacity of 0 disables caching entirely (every Lookup
/// misses, Insert is a no-op). Values are returned by copy so callers
/// never hold references into the cache across an eviction.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity);

  size_t capacity() const { return capacity_; }
  size_t size() const;

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<CachedResult> Lookup(const CacheKey& key);

  /// Inserts or refreshes `value` under `key`, evicting the least
  /// recently used entry when full.
  void Insert(const CacheKey& key, CachedResult value);

  /// Drops every entry and resets the stats counters, so hit rates
  /// measured after a clear describe only the new cache generation.
  void Clear();

  /// Copies out every entry, most recently used first, for persistence.
  /// Does not perturb recency or stats.
  std::vector<CacheEntry> Export() const;

  /// Replaces the cache contents with `entries` (the Export order: MRU
  /// first), truncating to capacity and dropping duplicate keys beyond
  /// their first occurrence. Stats are untouched — a restored cache
  /// starts its hit-rate ledger fresh.
  void Import(const std::vector<CacheEntry>& entries);

  CacheStats stats() const;

 private:
  struct Entry {
    CacheKey key;
    CachedResult value;
  };

  mutable Mutex mutex_;
  const size_t capacity_;  // Immutable after construction; read lock-free.
  // Front = most recently used.
  std::list<Entry> lru_ SIGSUB_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_ SIGSUB_GUARDED_BY(mutex_);
  CacheStats stats_ SIGSUB_GUARDED_BY(mutex_);
};

}  // namespace engine
}  // namespace sigsub

#endif  // SIGSUB_ENGINE_RESULT_CACHE_H_
