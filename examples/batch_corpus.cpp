// Batch mining a corpus through the query facade: build a small corpus of
// binary series, fan a heterogeneous set of api::QuerySpecs across the
// engine, and show the result cache absorbing a repeated batch.
//
// Build: cmake --build build --target example_batch_corpus

#include <cstdio>
#include <string>
#include <vector>

#include "sigsub.h"

using namespace sigsub;

int main() {
  // Six binary records, each with a planted run of ones.
  seq::Rng rng(7);
  std::vector<std::string> records;
  for (int i = 0; i < 6; ++i) {
    seq::Sequence s = seq::GenerateNull(2, 300, rng);
    std::string text = s.ToString(seq::Alphabet::Binary());
    text.replace(static_cast<size_t>(20 + 40 * i), 20, std::string(20, '1'));
    records.push_back(text);
  }
  auto corpus = engine::Corpus::FromStrings(records, "01");
  if (!corpus.ok()) {
    std::printf("corpus error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  engine::Engine engine({.num_threads = 2, .cache_capacity = 64});

  // Per record: the MSS, the top 3 substrings, and the best window of
  // length 8..32 (lenbound — reachable only through the query layer).
  std::vector<api::QuerySpec> queries;
  for (int64_t i = 0; i < corpus->size(); ++i) {
    api::QuerySpec mss;
    mss.sequence_index = i;
    queries.push_back(mss);
    api::QuerySpec topt;
    topt.sequence_index = i;
    topt.request = api::TopTQuery{3};
    queries.push_back(topt);
    api::QuerySpec windowed;
    windowed.sequence_index = i;
    windowed.request = api::LengthBoundedQuery{8, 32};
    queries.push_back(windowed);
  }

  auto results = engine.ExecuteQueries(*corpus, queries);
  const Status status =
      results.ok() ? engine::FirstQueryError(*results) : results.status();
  if (!status.ok()) {
    std::printf("batch error: %s\n", status.ToString().c_str());
    return 1;
  }
  for (const api::QueryResult& result : *results) {
    if (result.kind != api::QueryKind::kMss) continue;
    const core::Substring& best = result.best();
    std::printf("record %lld: MSS [%lld, %lld) X² = %.2f  p = %.3g\n",
                static_cast<long long>(result.sequence_index),
                static_cast<long long>(best.start),
                static_cast<long long>(best.end), best.chi_square,
                core::SubstringPValue(best.chi_square, 2));
  }

  // Replaying the batch hits the cache for every query — the key is the
  // canonical serialization (api::FormatQuery) of each spec, so the same
  // query re-parsed from text is the same cache entry.
  (void)engine.ExecuteQueries(*corpus, queries);
  engine::CacheStats stats = engine.cache_stats();
  std::printf("cache: %lld hits / %lld lookups\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.lookups()));
  return 0;
}
