#include "engine/result_cache.h"

#include "gtest/gtest.h"

namespace sigsub {
namespace engine {
namespace {

CachedResult MakeResult(double chi_square) {
  CachedResult result;
  result.best = core::Substring{0, 1, chi_square};
  result.substrings = {result.best};
  result.match_count = 1;
  return result;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(4);
  CacheKey key{1, 2};
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, MakeResult(5.0));
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->best.chi_square, 5.0);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.lookups(), 2);
}

TEST(ResultCacheTest, DistinctKeyComponentsMiss) {
  ResultCache cache(8);
  cache.Insert(CacheKey{1, 2}, MakeResult(1.0));
  EXPECT_TRUE(cache.Lookup(CacheKey{1, 2}).has_value());
  // Any differing component is a different query.
  EXPECT_FALSE(cache.Lookup(CacheKey{9, 2}).has_value());
  EXPECT_FALSE(cache.Lookup(CacheKey{1, 9}).has_value());
  // Permuted components must not alias.
  EXPECT_FALSE(cache.Lookup(CacheKey{2, 1}).has_value());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  CacheKey a{1, 0}, b{2, 0}, c{3, 0};
  cache.Insert(a, MakeResult(1.0));
  cache.Insert(b, MakeResult(2.0));
  // Touch `a` so `b` becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(a).has_value());
  cache.Insert(c, MakeResult(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(a).has_value());
  EXPECT_FALSE(cache.Lookup(b).has_value());
  EXPECT_TRUE(cache.Lookup(c).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCacheTest, ReinsertRefreshesValue) {
  ResultCache cache(2);
  CacheKey key{1, 1};
  cache.Insert(key, MakeResult(1.0));
  cache.Insert(key, MakeResult(7.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.Lookup(key)->best.chi_square, 7.0);
  EXPECT_EQ(cache.stats().insertions, 1);  // Refresh is not an insertion.
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  CacheKey key{1, 1};
  cache.Insert(key, MakeResult(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ResultCacheTest, ClearResetsEntriesAndStats) {
  ResultCache cache(4);
  CacheKey key{1, 1};
  cache.Insert(key, MakeResult(1.0));
  EXPECT_TRUE(cache.Lookup(key).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  // Counters restart with the new cache generation: the pre-clear hit
  // and insertion must not leak into post-clear hit rates.
  CacheStats cleared = cache.stats();
  EXPECT_EQ(cleared.hits, 0);
  EXPECT_EQ(cleared.misses, 0);
  EXPECT_EQ(cleared.insertions, 0);
  EXPECT_EQ(cleared.evictions, 0);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace engine
}  // namespace sigsub
