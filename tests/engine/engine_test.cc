#include "engine/engine.h"

#include <string>
#include <vector>

#include "api/serde.h"
#include "common/str_util.h"
#include "core/agmm.h"
#include "core/arlm.h"
#include "core/blocked_scan.h"
#include "core/chi_square.h"
#include "core/length_bounded.h"
#include "core/markov_scan.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/suffix_scan.h"
#include "core/threshold.h"
#include "core/top_disjoint.h"
#include "core/top_t.h"
#include "engine/engine_stats.h"
#include "engine/fingerprint.h"
#include "engine/stream_manager.h"
#include "gtest/gtest.h"
#include "io/csv.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/rng.h"
#include "stats/chi_squared.h"
#include "testing/test_util.h"

namespace sigsub {
namespace engine {
namespace {

/// A small corpus with planted structure: random binary records plus runs.
Corpus MakeCorpus() {
  seq::Rng rng(20120731);
  std::vector<std::string> records;
  for (int i = 0; i < 6; ++i) {
    seq::Sequence s = seq::GenerateNull(2, 400, rng);
    std::string text = s.ToString(seq::Alphabet::Binary());
    // Plant a run whose position depends on the record.
    text.replace(static_cast<size_t>(40 + 30 * i), 25, std::string(25, '1'));
    records.push_back(text);
  }
  auto corpus = Corpus::FromStrings(records, "01");
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).value();
}

/// A batch's outcome as one status: the batch's own, else its first
/// failed query's (the way the CLI reports a batch).
Status BatchStatus(Engine& engine, const Corpus& corpus,
                   const std::vector<api::QuerySpec>& queries) {
  auto results = engine.ExecuteQueries(corpus, queries);
  return results.ok() ? FirstQueryError(*results) : results.status();
}

/// One query per record of `request`, under the uniform model.
std::vector<api::QuerySpec> PerRecord(const Corpus& corpus,
                                      const api::QueryRequest& request) {
  std::vector<api::QuerySpec> queries(static_cast<size_t>(corpus.size()));
  for (int64_t i = 0; i < corpus.size(); ++i) {
    queries[static_cast<size_t>(i)].sequence_index = i;
    queries[static_cast<size_t>(i)].request = request;
  }
  return queries;
}

/// The paper's problems (plus disjoint top-t) on every record.
std::vector<api::QuerySpec> MakeMixedQueries(const Corpus& corpus) {
  std::vector<api::QuerySpec> queries;
  for (const api::QueryRequest& request :
       {api::QueryRequest{api::MssQuery{}},
        api::QueryRequest{api::TopTQuery{4}},
        api::QueryRequest{api::TopDisjointQuery{4, 10, 0.0}},
        api::QueryRequest{api::ThresholdQuery{8.0, -1.0, 1000}},
        api::QueryRequest{api::MinLengthQuery{10}}}) {
    for (api::QuerySpec& spec : PerRecord(corpus, request)) {
      queries.push_back(std::move(spec));
    }
  }
  return queries;
}

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  Corpus corpus = MakeCorpus();
  std::vector<api::QuerySpec> queries = MakeMixedQueries(corpus);
  Engine one({.num_threads = 1, .cache_capacity = 0});
  Engine four({.num_threads = 4, .cache_capacity = 0});
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> serial,
                       one.ExecuteQueries(corpus, queries));
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> parallel,
                       four.ExecuteQueries(corpus, queries));
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    std::span<const core::Substring> a = serial[i].substrings();
    std::span<const core::Substring> b = parallel[i].substrings();
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
      // Bit-identical X², starts and ends: parallelism is across queries,
      // never inside a kernel.
      EXPECT_EQ(a[r].chi_square, b[r].chi_square);
      EXPECT_EQ(a[r].start, b[r].start);
      EXPECT_EQ(a[r].end, b[r].end);
    }
    EXPECT_EQ(serial[i].match_count(), parallel[i].match_count());
  }
}

TEST(EngineTest, InRecordShardingIsBitIdenticalAcrossThreadCounts) {
  // One long record with a planted anomaly, sharded at a low threshold:
  // the X² value must be bit-identical at 1, 2, and 8 threads (and to
  // the sequential kernel) — the sharded scan's skips are only ever
  // taken when safe against the final maximum.
  seq::Rng rng(20120801);
  seq::Sequence s = seq::GenerateNull(2, 6000, rng);
  std::string text = s.ToString(seq::Alphabet::Binary());
  text.replace(2500, 180, std::string(180, '1'));
  auto corpus = Corpus::FromStrings({text}, "01");
  ASSERT_TRUE(corpus.ok());

  ASSERT_OK_AND_ASSIGN(
      core::MssResult direct,
      core::FindMss(corpus->sequence(0), seq::MultinomialModel::Uniform(2)));

  for (int threads : {1, 2, 8}) {
    Engine engine({.num_threads = threads,
                   .cache_capacity = 0,
                   .shard_min_sequence = 512});
    ASSERT_OK_AND_ASSIGN(auto results,
                         engine.ExecuteQueries(*corpus, {api::QuerySpec{}}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].best().chi_square, direct.best.chi_square)
        << "threads=" << threads;
    ASSERT_EQ(results[0].substrings().size(), 1u);
    // The sharded scan still covers every start position exactly once.
    EXPECT_EQ(results[0].stats().start_positions, 6000);
  }
}

TEST(EngineTest, ShardingThresholdZeroDisables) {
  Corpus corpus = MakeCorpus();
  Engine sharded({.num_threads = 4,
                  .cache_capacity = 0,
                  .shard_min_sequence = 1});
  Engine plain({.num_threads = 4,
                .cache_capacity = 0,
                .shard_min_sequence = 0});
  const std::vector<api::QuerySpec> queries =
      PerRecord(corpus, api::MssQuery{});
  ASSERT_OK_AND_ASSIGN(auto a, sharded.ExecuteQueries(corpus, queries));
  ASSERT_OK_AND_ASSIGN(auto b, plain.ExecuteQueries(corpus, queries));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].best().chi_square, b[i].best().chi_square) << i;
  }
}

TEST(EngineTest, CacheHitsOnRepeatedBatch) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 2, .cache_capacity = 256});
  std::vector<api::QuerySpec> queries = MakeMixedQueries(corpus);

  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> cold,
                       engine.ExecuteQueries(corpus, queries));
  CacheStats after_cold = engine.cache_stats();
  EXPECT_EQ(after_cold.hits, 0);
  EXPECT_EQ(after_cold.misses, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(after_cold.insertions, static_cast<int64_t>(queries.size()));

  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> warm,
                       engine.ExecuteQueries(corpus, queries));
  CacheStats after_warm = engine.cache_stats();
  EXPECT_EQ(after_warm.hits, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(after_warm.misses, static_cast<int64_t>(queries.size()));

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit);
    EXPECT_TRUE(warm[i].cache_hit);
    ASSERT_EQ(warm[i].substrings().size(), cold[i].substrings().size());
    for (size_t r = 0; r < cold[i].substrings().size(); ++r) {
      EXPECT_EQ(warm[i].substrings()[r].chi_square,
                cold[i].substrings()[r].chi_square);
    }
    // Cache hits never rescan.
    EXPECT_EQ(warm[i].stats().positions_examined, 0);
  }
}

TEST(EngineTest, CacheDistinguishesParamsAndModels) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 64});

  api::QuerySpec topt3;
  topt3.request = api::TopTQuery{3};
  api::QuerySpec topt5;
  topt5.request = api::TopTQuery{5};
  api::QuerySpec skewed = topt3;
  skewed.model = api::ModelSpec::Multinomial({0.8, 0.2});
  ASSERT_OK_AND_ASSIGN(auto first,
                       engine.ExecuteQueries(corpus, {topt3, topt5, skewed}));
  EXPECT_EQ(engine.cache_stats().misses, 3);  // All distinct cache keys.
  ASSERT_OK_AND_ASSIGN(auto second,
                       engine.ExecuteQueries(corpus, {topt3, topt5, skewed}));
  EXPECT_EQ(engine.cache_stats().hits, 3);
  EXPECT_EQ(first[0].substrings().size(), 3u);
  EXPECT_EQ(first[1].substrings().size(), 5u);
}

TEST(EngineTest, ValidatesSpecs) {
  Corpus corpus = MakeCorpus();
  Engine engine;
  auto rejected = [&](api::ModelSpec model, api::QueryRequest request) {
    api::QuerySpec spec;
    spec.model = std::move(model);
    spec.request = std::move(request);
    return BatchStatus(engine, corpus, {spec}).IsInvalidArgument();
  };
  // Wrong arity for a binary corpus; a vector that does not sum to 1.
  EXPECT_TRUE(rejected(api::ModelSpec::Multinomial({0.2, 0.3, 0.5}),
                       api::MssQuery{}));
  EXPECT_TRUE(
      rejected(api::ModelSpec::Multinomial({0.9, 0.3}), api::MssQuery{}));
  EXPECT_TRUE(rejected(api::ModelSpec::Uniform(), api::TopTQuery{0}));
  EXPECT_TRUE(rejected(api::ModelSpec::Uniform(), api::MinLengthQuery{0}));
}

TEST(EngineTest, DuplicateQueriesRunTheirKernelOnce) {
  // Two records with identical content share a fingerprint, so the same
  // uniform query on both is one distinct computation.
  auto corpus = Corpus::FromStrings({"01100111101", "01100111101"});
  ASSERT_TRUE(corpus.ok());
  Engine engine({.num_threads = 2, .cache_capacity = 16});
  ASSERT_OK_AND_ASSIGN(
      auto results,
      engine.ExecuteQueries(*corpus, PerRecord(*corpus, api::MssQuery{})));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].best().chi_square, results[1].best().chi_square);
  // Exactly one ran the kernel; its twin was served by that run.
  EXPECT_EQ((results[0].cache_hit ? 1 : 0) + (results[1].cache_hit ? 1 : 0),
            1);
  int64_t examined = results[0].stats().positions_examined +
                     results[1].stats().positions_examined;
  EXPECT_GT(examined, 0);
  EXPECT_EQ(results[0].cache_hit ? results[0].stats().positions_examined
                                 : results[1].stats().positions_examined,
            0);
}

TEST(EngineTest, EmptyBatchIsFine) {
  Corpus corpus = MakeCorpus();
  Engine engine;
  ASSERT_OK_AND_ASSIGN(auto results, engine.ExecuteQueries(corpus, {}));
  EXPECT_TRUE(results.empty());
}

TEST(EngineTest, ThresholdQueryWithNoMatchesCarriesEmptyBest) {
  // scan_types.h: ThresholdResult::best is valid iff match_count > 0.
  // The engine's payload for a matchless threshold query must carry the
  // explicit empty shape (count 0, no substrings, zero-length best) that
  // formatting consumers key off — not a stale or garbage substring.
  auto corpus = Corpus::FromStrings({"0101"}, "01");
  ASSERT_TRUE(corpus.ok());
  Engine engine({.num_threads = 1, .cache_capacity = 4});
  api::QuerySpec spec;
  // Far above anything a 4-symbol record reaches.
  spec.request = api::ThresholdQuery{50.0, -1.0, 1000};
  ASSERT_OK_AND_ASSIGN(auto results, engine.ExecuteQueries(*corpus, {spec}));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].match_count(), 0);
  EXPECT_TRUE(results[0].substrings().empty());
  EXPECT_EQ(results[0].best().length(), 0);
  EXPECT_EQ(results[0].best().chi_square, 0.0);
}

/// One QuerySpec of every kind with non-default parameters.
std::vector<api::QuerySpec> MakeAllKindQueries(int64_t sequence_index) {
  std::vector<api::QuerySpec> queries;
  auto add = [&](api::QueryRequest request) {
    api::QuerySpec spec;
    spec.sequence_index = sequence_index;
    spec.request = std::move(request);
    queries.push_back(std::move(spec));
  };
  add(api::MssQuery{});
  add(api::TopTQuery{4});
  add(api::TopDisjointQuery{3, 5, 0.0});
  add(api::ThresholdQuery{8.0, -1.0, 1000});
  add(api::MinLengthQuery{10});
  add(api::LengthBoundedQuery{5, 40});
  add(api::ArlmQuery{});
  add(api::AgmmQuery{});
  add(api::BlockedQuery{16});
  add(api::SubstringsQuery{5, 2, 0, 2, true, -1.0, -1.0});
  return queries;
}

/// The SuffixScanOptions equivalent of MakeAllKindQueries's substrings
/// entry, for direct-kernel comparisons.
core::SuffixScanOptions DirectSubstringsOptions() {
  core::SuffixScanOptions options;
  options.top_n = 5;
  options.min_length = 2;
  options.min_count = 2;
  options.maximal_only = true;
  return options;
}

TEST(QueryEngineTest, EveryKernelMatchesDirectCallBitIdentically) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 2, .cache_capacity = 0});
  std::vector<api::QuerySpec> queries;
  for (int64_t i = 0; i < corpus.size(); ++i) {
    for (api::QuerySpec& spec : MakeAllKindQueries(i)) {
      queries.push_back(std::move(spec));
    }
  }
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> results,
                       engine.ExecuteQueries(corpus, queries));
  ASSERT_EQ(results.size(), queries.size());

  seq::MultinomialModel model = seq::MultinomialModel::Uniform(2);
  for (size_t i = 0; i < queries.size(); ++i) {
    const api::QuerySpec& spec = queries[i];
    const api::QueryResult& result = results[i];
    EXPECT_EQ(result.query_index, static_cast<int64_t>(i));
    EXPECT_EQ(result.sequence_index, spec.sequence_index);
    EXPECT_EQ(result.kind, spec.kind());
    EXPECT_FALSE(result.cache_hit);
    const seq::Sequence& sequence = corpus.sequence(spec.sequence_index);
    switch (spec.kind()) {
      case api::QueryKind::kMss: {
        ASSERT_OK_AND_ASSIGN(core::MssResult direct,
                             core::FindMss(sequence, model));
        EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        EXPECT_EQ(result.best().start, direct.best.start);
        EXPECT_EQ(result.best().end, direct.best.end);
        EXPECT_EQ(result.stats().positions_examined,
                  direct.stats.positions_examined);
        break;
      }
      case api::QueryKind::kTopT: {
        ASSERT_OK_AND_ASSIGN(core::TopTResult direct,
                             core::FindTopT(sequence, model, 4));
        std::span<const core::Substring> subs = result.substrings();
        ASSERT_EQ(subs.size(), direct.top.size());
        for (size_t r = 0; r < direct.top.size(); ++r) {
          EXPECT_EQ(subs[r].chi_square, direct.top[r].chi_square);
          EXPECT_EQ(subs[r].start, direct.top[r].start);
          EXPECT_EQ(subs[r].end, direct.top[r].end);
        }
        break;
      }
      case api::QueryKind::kTopDisjoint: {
        core::TopDisjointOptions options;
        options.t = 3;
        options.min_length = 5;
        ASSERT_OK_AND_ASSIGN(std::vector<core::Substring> direct,
                             core::FindTopDisjoint(sequence, model, options));
        std::span<const core::Substring> subs = result.substrings();
        ASSERT_EQ(subs.size(), direct.size());
        for (size_t r = 0; r < direct.size(); ++r) {
          EXPECT_EQ(subs[r].chi_square, direct[r].chi_square);
        }
        break;
      }
      case api::QueryKind::kThreshold: {
        ASSERT_OK_AND_ASSIGN(core::ThresholdResult direct,
                             core::FindAboveThreshold(sequence, model, 8.0));
        EXPECT_EQ(result.match_count(), direct.match_count);
        if (direct.match_count > 0) {
          EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        }
        break;
      }
      case api::QueryKind::kMinLength: {
        ASSERT_OK_AND_ASSIGN(core::MssResult direct,
                             core::FindMssMinLength(sequence, model, 10));
        EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        EXPECT_EQ(result.best().start, direct.best.start);
        EXPECT_EQ(result.best().end, direct.best.end);
        break;
      }
      case api::QueryKind::kLengthBounded: {
        ASSERT_OK_AND_ASSIGN(
            core::MssResult direct,
            core::FindMssLengthBounded(sequence, model, 5, 40));
        EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        EXPECT_EQ(result.best().start, direct.best.start);
        EXPECT_EQ(result.best().end, direct.best.end);
        break;
      }
      case api::QueryKind::kArlm: {
        ASSERT_OK_AND_ASSIGN(core::MssResult direct,
                             core::FindMssArlm(sequence, model));
        EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        EXPECT_EQ(result.best().start, direct.best.start);
        EXPECT_EQ(result.best().end, direct.best.end);
        break;
      }
      case api::QueryKind::kAgmm: {
        ASSERT_OK_AND_ASSIGN(core::MssResult direct,
                             core::FindMssAgmm(sequence, model));
        EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        EXPECT_EQ(result.best().start, direct.best.start);
        EXPECT_EQ(result.best().end, direct.best.end);
        break;
      }
      case api::QueryKind::kBlocked: {
        ASSERT_OK_AND_ASSIGN(core::MssResult direct,
                             core::FindMssBlocked(sequence, model, 16));
        EXPECT_EQ(result.best().chi_square, direct.best.chi_square);
        EXPECT_EQ(result.best().start, direct.best.start);
        EXPECT_EQ(result.best().end, direct.best.end);
        break;
      }
      case api::QueryKind::kSubstrings: {
        core::ChiSquareContext context(model);
        ASSERT_OK_AND_ASSIGN(core::SuffixScan scan,
                             core::SuffixScan::Build(sequence.symbols(), 2));
        ASSERT_OK_AND_ASSIGN(core::SuffixScanResult direct,
                             scan.Scan(context, DirectSubstringsOptions()));
        const auto& payload =
            std::get<api::SubstringsPayload>(result.payload);
        ASSERT_EQ(payload.ranked.size(), direct.classes.size());
        for (size_t r = 0; r < direct.classes.size(); ++r) {
          EXPECT_EQ(payload.ranked[r].chi_square,
                    direct.classes[r].substring.chi_square);
          EXPECT_EQ(payload.ranked[r].start, direct.classes[r].substring.start);
          EXPECT_EQ(payload.ranked[r].end, direct.classes[r].substring.end);
          EXPECT_EQ(payload.counts[r], direct.classes[r].count);
          EXPECT_EQ(payload.p_values[r], direct.classes[r].p_value);
        }
        EXPECT_EQ(result.match_count(), direct.match_count);
        EXPECT_EQ(result.stats().positions_examined,
                  direct.stats.candidates_scored);
        EXPECT_EQ(result.stats().start_positions,
                  direct.stats.classes_enumerated);
        break;
      }
    }
  }
}

// block_size is only checked for >= 1, so INT64_MAX reaches the kernel:
// it must scan one block per row rather than overflow the block end.
TEST(QueryEngineTest, BlockedWithMaximalBlockSizeIsOneBlockPerRow) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 2, .cache_capacity = 0});
  ASSERT_OK_AND_ASSIGN(
      api::QuerySpec spec,
      api::ParseQuery("blocked:seq=1,block_size=9223372036854775807"));
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> results,
                       engine.ExecuteQueries(corpus, {spec}));
  ASSERT_EQ(results.size(), 1u);
  const seq::Sequence& sequence = corpus.sequence(1);
  ASSERT_OK_AND_ASSIGN(
      core::MssResult direct,
      core::FindMssBlocked(sequence, seq::MultinomialModel::Uniform(2),
                           sequence.size()));
  EXPECT_EQ(results[0].best().start, direct.best.start);
  EXPECT_EQ(results[0].best().end, direct.best.end);
  EXPECT_EQ(results[0].best().chi_square, direct.best.chi_square);
  EXPECT_EQ(results[0].stats().positions_examined,
            direct.stats.positions_examined);
  EXPECT_EQ(results[0].stats().skip_events, direct.stats.skip_events);
}

TEST(QueryEngineTest, MarkovModelMssMatchesDirectCall) {
  // A Markov ModelSpec on an mss query runs the Markov-statistic scan.
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 8});
  api::QuerySpec spec;
  spec.sequence_index = 0;
  spec.model = api::ModelSpec::Markov({0.6, 0.4, 0.3, 0.7});
  ASSERT_OK_AND_ASSIGN(auto results, engine.ExecuteQueries(corpus, {spec}));
  ASSERT_EQ(results.size(), 1u);

  ASSERT_OK_AND_ASSIGN(seq::MarkovModel model,
                       seq::MarkovModel::Make(2, {0.6, 0.4, 0.3, 0.7},
                                              {0.5, 0.5}));
  ASSERT_OK_AND_ASSIGN(core::MssResult direct,
                       core::FindMssMarkov(corpus.sequence(0), model));
  EXPECT_EQ(results[0].best().chi_square, direct.best.chi_square);
  EXPECT_EQ(results[0].best().start, direct.best.start);
  EXPECT_EQ(results[0].best().end, direct.best.end);

  // Repeats are cache hits like any other query.
  ASSERT_OK_AND_ASSIGN(auto warm, engine.ExecuteQueries(corpus, {spec}));
  EXPECT_TRUE(warm[0].cache_hit);
  EXPECT_EQ(warm[0].best().chi_square, direct.best.chi_square);
}

TEST(QueryEngineTest, AlphaPConvertsViaCriticalValue) {
  // threshold alpha_p must behave exactly like alpha0 = the χ²(k−1)
  // critical value of that p-value — and win when both fields are set.
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 0});
  const double alpha_p = 0.001;
  const double critical =
      stats::ChiSquaredDistribution(1).CriticalValue(alpha_p);

  api::QuerySpec by_p;
  by_p.request = api::ThresholdQuery{-1.0, alpha_p, 1000};
  api::QuerySpec by_x2;
  by_x2.request = api::ThresholdQuery{critical, -1.0, 1000};
  api::QuerySpec both;  // A stale alpha0 must lose to alpha_p.
  both.request = api::ThresholdQuery{0.0, alpha_p, 1000};
  ASSERT_OK_AND_ASSIGN(auto results,
                       engine.ExecuteQueries(corpus, {by_p, by_x2, both}));
  EXPECT_GT(results[0].match_count(), 0);
  EXPECT_EQ(results[0].match_count(), results[1].match_count());
  EXPECT_EQ(results[0].best().chi_square, results[1].best().chi_square);
  EXPECT_EQ(results[2].match_count(), results[0].match_count());
}

TEST(EngineTest, ThreadCountIsBounded) {
  EXPECT_TRUE(ValidateEngineOptions({.num_threads = 0}).ok());
  EXPECT_TRUE(ValidateEngineOptions({.num_threads = kMaxThreads}).ok());
  for (int bad : {-3, kMaxThreads + 1}) {
    const Status status = ValidateEngineOptions({.num_threads = bad});
    ASSERT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_NE(status.message().find("num_threads must be in [0, 1024]"),
              std::string::npos)
        << status.message();
  }
}

TEST(QueryEngineTest, TopTAboveTheCapNamesField) {
  Corpus corpus = MakeCorpus();
  Engine engine;
  api::QuerySpec spec;
  spec.request = api::TopTQuery{core::kMaxTopT + 1};
  auto status = BatchStatus(engine, corpus, {spec});
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("field t must be in [1, 1048576]"),
            std::string::npos)
      << status.message();
}

TEST(QueryEngineTest, ValidationNamesQueryAndField) {
  Corpus corpus = MakeCorpus();
  Engine engine;
  {
    api::QuerySpec spec;
    spec.sequence_index = corpus.size();
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("query 0"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("field seq"), std::string::npos);
  }
  {
    api::QuerySpec spec;
    spec.request = api::LengthBoundedQuery{10, 5};
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("lenbound"), std::string::npos);
    EXPECT_NE(status.message().find("field max_length"), std::string::npos);
  }
  {
    api::QuerySpec spec;
    spec.request = api::ThresholdQuery{};  // Neither cutoff set.
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("alpha0"), std::string::npos);
    EXPECT_NE(status.message().find("alpha_p"), std::string::npos);
  }
  {
    api::QuerySpec spec;
    spec.request = api::ThresholdQuery{-1.0, 2.0,
                                       std::numeric_limits<int64_t>::max()};
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("field alpha_p"), std::string::npos);
  }
  {
    // NaN compares false against everything, so it would otherwise read
    // as "unset" in validation and disable the cutoff in the scan.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (api::ThresholdQuery bad :
         {api::ThresholdQuery{nan, -1.0, 100},
          api::ThresholdQuery{-1.0, nan, 100},
          api::ThresholdQuery{std::numeric_limits<double>::infinity(), -1.0,
                              100}}) {
      api::QuerySpec spec;
      spec.request = bad;
      auto status = BatchStatus(engine, corpus, {spec});
      ASSERT_TRUE(status.IsInvalidArgument());
      EXPECT_NE(status.message().find("alpha0"), std::string::npos);
    }
    api::QuerySpec spec;
    spec.request = api::TopDisjointQuery{2, 1, nan};
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("field min_x2"), std::string::npos);
  }
  {
    api::QuerySpec spec;
    spec.request = api::BlockedQuery{0};
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("field block_size"), std::string::npos);
  }
  {
    // Markov models only make sense for the mss kernel.
    api::QuerySpec spec;
    spec.model = api::ModelSpec::Markov({0.5, 0.5, 0.5, 0.5});
    spec.request = api::TopTQuery{3};
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("field model"), std::string::npos);
  }
  {
    // Markov validation catches bad transition matrices.
    api::QuerySpec spec;
    spec.model = api::ModelSpec::Markov({0.5, 0.5, 0.5});  // Not k*k.
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("field model.transitions"),
              std::string::npos);
  }
}

TEST(QueryEngineTest, SubstringsMarkovModelMatchesDirectScan) {
  // A Markov ModelSpec on a substrings query scores classes with the
  // transition statistic, bit-identically to the direct suffix scan.
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 8});
  api::QuerySpec spec;
  spec.model = api::ModelSpec::Markov({0.6, 0.4, 0.3, 0.7});
  spec.request = api::SubstringsQuery{5, 2, 0, 2, true, -1.0, -1.0};
  ASSERT_OK_AND_ASSIGN(auto results, engine.ExecuteQueries(corpus, {spec}));

  ASSERT_OK_AND_ASSIGN(
      seq::MarkovModel model,
      seq::MarkovModel::Make(2, {0.6, 0.4, 0.3, 0.7}, {0.5, 0.5}));
  ASSERT_OK_AND_ASSIGN(core::MarkovChiSquare markov,
                       core::MarkovChiSquare::Make(model));
  ASSERT_OK_AND_ASSIGN(
      core::SuffixScan scan,
      core::SuffixScan::Build(corpus.sequence(0).symbols(), 2));
  ASSERT_OK_AND_ASSIGN(core::SuffixScanResult direct,
                       scan.ScanMarkov(markov, DirectSubstringsOptions()));
  const auto& payload = std::get<api::SubstringsPayload>(results[0].payload);
  ASSERT_EQ(payload.ranked.size(), direct.classes.size());
  for (size_t r = 0; r < direct.classes.size(); ++r) {
    EXPECT_EQ(payload.ranked[r].chi_square,
              direct.classes[r].substring.chi_square);
    EXPECT_EQ(payload.counts[r], direct.classes[r].count);
  }
  ASSERT_OK_AND_ASSIGN(auto warm, engine.ExecuteQueries(corpus, {spec}));
  EXPECT_TRUE(warm[0].cache_hit);
  const auto& cached = std::get<api::SubstringsPayload>(warm[0].payload);
  EXPECT_EQ(cached.ranked.size(), payload.ranked.size());
  EXPECT_EQ(cached.counts, payload.counts);
  EXPECT_EQ(cached.p_values, payload.p_values);
}

TEST(QueryEngineTest, SubstringsAlphaPConvertsViaCriticalValue) {
  // alpha_p gates classes exactly like alpha0 = the χ²(k−1) critical
  // value, and wins when both are set.
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 0});
  const double alpha_p = 0.001;
  const double critical =
      stats::ChiSquaredDistribution(1).CriticalValue(alpha_p);
  api::QuerySpec by_p;
  by_p.request = api::SubstringsQuery{0, 1, 0, 2, true, -1.0, alpha_p};
  api::QuerySpec by_x2;
  by_x2.request = api::SubstringsQuery{0, 1, 0, 2, true, critical, -1.0};
  api::QuerySpec both;  // A stale alpha0 must lose to alpha_p.
  both.request = api::SubstringsQuery{0, 1, 0, 2, true, 0.0, alpha_p};
  ASSERT_OK_AND_ASSIGN(auto results,
                       engine.ExecuteQueries(corpus, {by_p, by_x2, both}));
  EXPECT_GT(results[0].match_count(), 0);
  EXPECT_EQ(results[0].match_count(), results[1].match_count());
  EXPECT_EQ(results[0].best().chi_square, results[1].best().chi_square);
  EXPECT_EQ(results[2].match_count(), results[0].match_count());
}

TEST(QueryEngineTest, SubstringsValidationNamesField) {
  Corpus corpus = MakeCorpus();
  Engine engine;
  struct Case {
    api::SubstringsQuery query;
    const char* needle;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {{-1, 1, 0, 2, true, -1.0, -1.0}, "field top"},
      {{10, 0, 0, 2, true, -1.0, -1.0}, "field min_length"},
      {{10, 5, 3, 2, true, -1.0, -1.0}, "field max_length"},
      {{10, 1, 0, 0, true, -1.0, -1.0}, "field min_count"},
      {{10, 1, 0, 2, false, -1.0, -1.0}, "maximal=0"},
      {{10, 1, 0, 2, true, nan, -1.0}, "alpha0"},
      {{10, 1, 0, 2, true, -1.0, 1.5}, "field alpha_p"},
  };
  for (const Case& c : cases) {
    api::QuerySpec spec;
    spec.request = c.query;
    auto status = BatchStatus(engine, corpus, {spec});
    ASSERT_TRUE(status.IsInvalidArgument()) << c.needle;
    EXPECT_NE(status.message().find("substrings"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find(c.needle), std::string::npos)
        << status.message();
  }
  // Non-maximal enumeration is legal once a length bound caps the
  // candidate set.
  api::QuerySpec bounded;
  bounded.request = api::SubstringsQuery{10, 1, 6, 2, false, -1.0, -1.0};
  EXPECT_TRUE(BatchStatus(engine, corpus, {bounded}).ok());
}

TEST(QueryEngineTest, MappedCorpusMatchesTextLoaderAndRejectsWalkers) {
  // One record, loaded both ways: substrings results are bit-identical
  // and share cache entries (the mapped fingerprint equals the decoded
  // sequence fingerprint); sequence-walking kernels refuse the mapped
  // corpus by name.
  seq::Rng rng(424242);
  seq::Sequence planted = seq::GenerateNull(2, 600, rng);
  std::string text = planted.ToString(seq::Alphabet::Binary());
  text.replace(100, 30, std::string(30, '1'));
  const std::string path =
      ::testing::TempDir() + "/sigsub_engine_mapped_corpus.txt";
  ASSERT_OK(io::WriteTextFile(path, text + "\n"));
  ASSERT_OK_AND_ASSIGN(Corpus mapped, Corpus::FromMappedFile(path, "01"));
  ASSERT_OK_AND_ASSIGN(Corpus decoded, Corpus::FromStrings({text}, "01"));

  api::QuerySpec substrings;
  substrings.request = api::SubstringsQuery{8, 2, 0, 2, true, -1.0, -1.0};
  api::QuerySpec threshold;  // Counts-consuming kinds work mapped too.
  threshold.request = api::ThresholdQuery{8.0, -1.0, 1000};

  Engine engine({.num_threads = 1, .cache_capacity = 16});
  ASSERT_OK_AND_ASSIGN(auto from_mapped,
                       engine.ExecuteQueries(mapped, {substrings, threshold}));
  ASSERT_OK_AND_ASSIGN(
      auto from_decoded,
      engine.ExecuteQueries(decoded, {substrings, threshold}));
  const auto& a = std::get<api::SubstringsPayload>(from_mapped[0].payload);
  const auto& b = std::get<api::SubstringsPayload>(from_decoded[0].payload);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].chi_square, b.ranked[i].chi_square);
    EXPECT_EQ(a.ranked[i].start, b.ranked[i].start);
    EXPECT_EQ(a.ranked[i].end, b.ranked[i].end);
  }
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(from_mapped[1].match_count(), from_decoded[1].match_count());
  EXPECT_EQ(from_mapped[1].best().chi_square,
            from_decoded[1].best().chi_square);
  // Identical content + canonical query bytes = the decoded run was pure
  // cache hits.
  EXPECT_TRUE(from_decoded[0].cache_hit);
  EXPECT_TRUE(from_decoded[1].cache_hit);

  for (api::QueryRequest walker :
       {api::QueryRequest{api::ArlmQuery{}}, api::QueryRequest{api::AgmmQuery{}},
        api::QueryRequest{api::BlockedQuery{16}}}) {
    api::QuerySpec spec;
    spec.request = std::move(walker);
    auto status = BatchStatus(engine, mapped, {spec});
    ASSERT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("memory-mapped"), std::string::npos)
        << status.message();
  }
  api::QuerySpec markov_mss;
  markov_mss.model = api::ModelSpec::Markov({0.5, 0.5, 0.5, 0.5});
  auto status = BatchStatus(engine, mapped, {markov_mss});
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("Markov"), std::string::npos)
      << status.message();
}

/// Two distinct substrings queries: different cache keys, one index.
const api::SubstringsQuery kFirstSubstrings{10, 1, 0, 2, true, -1.0, -1.0};
const api::SubstringsQuery kSecondSubstrings{5, 3, 0, 3, true, -1.0, -1.0};

api::QuerySpec SubstringsSpec(int64_t sequence_index,
                              const api::SubstringsQuery& query) {
  api::QuerySpec spec;
  spec.sequence_index = sequence_index;
  spec.request = query;
  return spec;
}

/// The direct core scan a substrings query under the uniform model must
/// reproduce bit for bit.
core::SuffixScanResult DirectSubstrings(const core::SuffixScan& scan,
                                        const api::SubstringsQuery& query) {
  core::SuffixScanOptions options;
  options.top_n = query.top;
  options.min_length = query.min_length;
  options.max_length = query.max_length;
  options.min_count = query.min_count;
  options.maximal_only = query.maximal;
  core::ChiSquareContext context(
      seq::MultinomialModel::Uniform(scan.alphabet_size()));
  return scan.Scan(context, options).value();
}

void ExpectSamePayload(const api::QueryResult& result,
                       const core::SuffixScanResult& direct) {
  const auto& payload = std::get<api::SubstringsPayload>(result.payload);
  EXPECT_EQ(payload.match_count, direct.match_count);
  ASSERT_EQ(payload.ranked.size(), direct.classes.size());
  for (size_t r = 0; r < direct.classes.size(); ++r) {
    const core::SubstringClass& cls = direct.classes[r];
    EXPECT_EQ(payload.ranked[r].start, cls.substring.start) << "row " << r;
    EXPECT_EQ(payload.ranked[r].end, cls.substring.end) << "row " << r;
    EXPECT_EQ(payload.ranked[r].chi_square, cls.substring.chi_square)
        << "row " << r;
    EXPECT_EQ(payload.counts[r], cls.count) << "row " << r;
    EXPECT_EQ(payload.p_values[r], cls.p_value) << "row " << r;
  }
  EXPECT_EQ(payload.stats.positions_examined, direct.stats.candidates_scored);
  EXPECT_EQ(payload.stats.start_positions, direct.stats.classes_enumerated);
}

TEST(EngineTest, SubstringsMinCountOneOnLongRecordsMatchesDirectScan) {
  // min_count=1 scores every leaf class, each as deep as its suffix, and
  // a periodic record makes every internal class deep too: on 200k-symbol
  // records the query still returns promptly, bit-identical to the direct
  // scan.
  constexpr int64_t kN = 200000;
  std::string periodic;
  for (int64_t i = 0; i < kN; ++i) periodic.push_back("0123"[i % 4]);
  seq::Rng rng(14);
  const std::string random = seq::GenerateNull(4, kN, rng).ToString(
      seq::Alphabet::FromCharacters("0123").value());
  ASSERT_OK_AND_ASSIGN(Corpus corpus,
                       Corpus::FromStrings({periodic, random}, "0123"));
  ASSERT_OK_AND_ASSIGN(api::QuerySpec spec,
                       api::ParseQuery("substrings:min_count=1"));
  const auto& query = std::get<api::SubstringsQuery>(spec.request);
  std::vector<api::QuerySpec> specs = {spec, spec};
  specs[1].sequence_index = 1;
  Engine engine({.num_threads = 1, .cache_capacity = 8});
  ASSERT_OK_AND_ASSIGN(auto results, engine.ExecuteQueries(corpus, specs));
  for (int64_t i = 0; i < corpus.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(
        core::SuffixScan scan,
        core::SuffixScan::Build(corpus.sequence(i).symbols(), 4));
    ExpectSamePayload(results[static_cast<size_t>(i)],
                      DirectSubstrings(scan, query));
  }
}

TEST(EngineTest, SubstringsOnRecordsAboveTheParallelBuildThreshold) {
  // Two records long enough for a parallel index build (four chunks of
  // 64 Ki symbols), queried in one batch on a four-thread engine: each
  // build runs its own pool inside an engine worker, concurrently with
  // the other. Every payload equals the direct scan.
  constexpr int64_t kN = 4 * (int64_t{1} << 16) + 999;
  seq::Rng rng(15);
  const seq::Alphabet alphabet = seq::Alphabet::FromCharacters("0123").value();
  const std::string random = seq::GenerateNull(4, kN, rng).ToString(alphabet);
  const std::string unit = seq::GenerateNull(4, 613, rng).ToString(alphabet);
  std::string periodic;
  while (static_cast<int64_t>(periodic.size()) < kN) periodic += unit;
  periodic.resize(static_cast<size_t>(kN));
  periodic[kN / 3] = periodic[kN / 3] == '0' ? '1' : '0';
  ASSERT_OK_AND_ASSIGN(Corpus corpus,
                       Corpus::FromStrings({random, periodic}, "0123"));
  const std::vector<api::SubstringsQuery> queries = {kFirstSubstrings,
                                                     kSecondSubstrings};
  std::vector<api::QuerySpec> specs;
  for (int64_t record = 0; record < corpus.size(); ++record) {
    for (const api::SubstringsQuery& query : queries) {
      specs.push_back(SubstringsSpec(record, query));
    }
  }
  Engine engine({.num_threads = 4, .cache_capacity = 8});
  ASSERT_OK_AND_ASSIGN(auto results, engine.ExecuteQueries(corpus, specs));
  EXPECT_EQ(engine.suffix_index_builds(), 2);
  for (int64_t record = 0; record < corpus.size(); ++record) {
    ASSERT_OK_AND_ASSIGN(
        core::SuffixScan scan,
        core::SuffixScan::Build(corpus.sequence(record).symbols(), 4));
    for (size_t q = 0; q < queries.size(); ++q) {
      const size_t at = static_cast<size_t>(record) * queries.size() + q;
      ExpectSamePayload(results[at], DirectSubstrings(scan, queries[q]));
    }
  }
}

TEST(EngineSuffixIndexTest, DistinctQueryInLaterBatchReusesTheIndex) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 64});
  ASSERT_OK_AND_ASSIGN(
      core::SuffixScan scan,
      core::SuffixScan::Build(corpus.sequence(2).symbols(), 2));

  ASSERT_OK_AND_ASSIGN(
      auto first,
      engine.ExecuteQueries(corpus, {SubstringsSpec(2, kFirstSubstrings)}));
  EXPECT_EQ(engine.suffix_index_builds(), 1);
  ExpectSamePayload(first[0], DirectSubstrings(scan, kFirstSubstrings));

  ASSERT_OK_AND_ASSIGN(
      auto second,
      engine.ExecuteQueries(corpus, {SubstringsSpec(2, kSecondSubstrings)}));
  EXPECT_FALSE(second[0].cache_hit);
  EXPECT_EQ(engine.suffix_index_builds(), 1);
  ExpectSamePayload(second[0], DirectSubstrings(scan, kSecondSubstrings));

  // Another record is another index, and it becomes the retained one.
  ASSERT_OK(engine.ExecuteQueries(corpus, {SubstringsSpec(3, kFirstSubstrings)})
                .status());
  EXPECT_EQ(engine.suffix_index_builds(), 2);
  ASSERT_OK(engine.ExecuteQueries(corpus, {SubstringsSpec(3, kSecondSubstrings)})
                .status());
  EXPECT_EQ(engine.suffix_index_builds(), 2);
}

TEST(EngineSuffixIndexTest, OneBuildPerRecordWithinABatch) {
  Corpus corpus = MakeCorpus();
  for (int threads : {1, 4}) {
    Engine engine({.num_threads = threads, .cache_capacity = 64});
    ASSERT_OK_AND_ASSIGN(
        auto results,
        engine.ExecuteQueries(corpus, {SubstringsSpec(1, kFirstSubstrings),
                                       SubstringsSpec(1, kSecondSubstrings)}));
    EXPECT_EQ(engine.suffix_index_builds(), 1) << threads << " threads";
    ASSERT_OK_AND_ASSIGN(
        core::SuffixScan scan,
        core::SuffixScan::Build(corpus.sequence(1).symbols(), 2));
    ExpectSamePayload(results[0], DirectSubstrings(scan, kFirstSubstrings));
    ExpectSamePayload(results[1], DirectSubstrings(scan, kSecondSubstrings));

    // Several records in one batch: one build each, mixed with kinds
    // that read prefix counts instead.
    std::vector<api::QuerySpec> batch;
    for (int64_t record : {3, 4, 5}) {
      batch.push_back(SubstringsSpec(record, kFirstSubstrings));
      batch.push_back(SubstringsSpec(record, kSecondSubstrings));
      api::QuerySpec mss;
      mss.sequence_index = record;
      batch.push_back(mss);
    }
    ASSERT_OK_AND_ASSIGN(auto mixed, engine.ExecuteQueries(corpus, batch));
    EXPECT_EQ(engine.suffix_index_builds(), 4) << threads << " threads";
    for (size_t i = 0; i < batch.size(); i += 3) {
      const int64_t record = batch[i].sequence_index;
      ASSERT_OK_AND_ASSIGN(
          core::SuffixScan record_scan,
          core::SuffixScan::Build(corpus.sequence(record).symbols(), 2));
      ExpectSamePayload(mixed[i], DirectSubstrings(record_scan,
                                                   kFirstSubstrings));
      ExpectSamePayload(mixed[i + 1], DirectSubstrings(record_scan,
                                                       kSecondSubstrings));
    }
  }
}

TEST(EngineSuffixIndexTest, ReplacedCorpusRebuildsTheIndex) {
  seq::Rng rng(99);
  const std::string text_a =
      seq::GenerateNull(2, 500, rng).ToString(seq::Alphabet::Binary());
  const std::string text_b =
      seq::GenerateNull(2, 500, rng).ToString(seq::Alphabet::Binary());
  ASSERT_NE(text_a, text_b);
  Engine engine({.num_threads = 1, .cache_capacity = 64});
  {
    ASSERT_OK_AND_ASSIGN(Corpus first, Corpus::FromStrings({text_a}, "01"));
    ASSERT_OK(engine.ExecuteQueries(first, {SubstringsSpec(0, kFirstSubstrings)})
                  .status());
    EXPECT_EQ(engine.suffix_index_builds(), 1);
  }
  // The first corpus is gone; a same-length one may reuse its memory.
  ASSERT_OK_AND_ASSIGN(Corpus second, Corpus::FromStrings({text_b}, "01"));
  ASSERT_OK_AND_ASSIGN(
      auto results,
      engine.ExecuteQueries(second, {SubstringsSpec(0, kSecondSubstrings)}));
  EXPECT_EQ(engine.suffix_index_builds(), 2);
  ASSERT_OK_AND_ASSIGN(
      core::SuffixScan scan,
      core::SuffixScan::Build(second.sequence(0).symbols(), 2));
  ExpectSamePayload(results[0], DirectSubstrings(scan, kSecondSubstrings));

  // Same content at another address (a copy) is another record too.
  Corpus copy = second;
  ASSERT_OK_AND_ASSIGN(
      auto copied,
      engine.ExecuteQueries(copy, {SubstringsSpec(0, kFirstSubstrings)}));
  EXPECT_EQ(engine.suffix_index_builds(), 3);
  ExpectSamePayload(copied[0], DirectSubstrings(scan, kFirstSubstrings));
}

TEST(EngineSuffixIndexTest, MappedAndDecodedCorporaEachScanCorrectly) {
  seq::Rng rng(31337);
  const std::string text =
      seq::GenerateNull(2, 700, rng).ToString(seq::Alphabet::Binary());
  const std::string path =
      ::testing::TempDir() + "/sigsub_engine_suffix_index.txt";
  ASSERT_OK(io::WriteTextFile(path, text + "\n"));
  ASSERT_OK_AND_ASSIGN(Corpus mapped, Corpus::FromMappedFile(path, "01"));
  ASSERT_OK_AND_ASSIGN(Corpus decoded, Corpus::FromStrings({text}, "01"));
  ASSERT_OK_AND_ASSIGN(core::SuffixScan mapped_scan,
                       core::SuffixScan::BuildMapped(mapped.mapped_record(),
                                                     mapped.decode_table(), 2));
  ASSERT_OK_AND_ASSIGN(
      core::SuffixScan decoded_scan,
      core::SuffixScan::Build(decoded.sequence(0).symbols(), 2));

  // No result cache: every query runs its sweep, so only the index
  // decides what is rebuilt. Equal fingerprints, but different bytes and
  // decode tables, so switching corpora rebuilds.
  Engine engine({.num_threads = 1, .cache_capacity = 0});
  struct Step {
    const Corpus* corpus;
    const core::SuffixScan* direct;
    const api::SubstringsQuery* query;
    int64_t builds;
  };
  const Step steps[] = {
      {&mapped, &mapped_scan, &kFirstSubstrings, 1},
      {&decoded, &decoded_scan, &kFirstSubstrings, 2},
      {&decoded, &decoded_scan, &kSecondSubstrings, 2},
      {&mapped, &mapped_scan, &kSecondSubstrings, 3},
      {&mapped, &mapped_scan, &kFirstSubstrings, 3},
  };
  for (const Step& step : steps) {
    ASSERT_OK_AND_ASSIGN(
        auto results,
        engine.ExecuteQueries(*step.corpus, {SubstringsSpec(0, *step.query)}));
    EXPECT_EQ(engine.suffix_index_builds(), step.builds);
    ExpectSamePayload(results[0], DirectSubstrings(*step.direct, *step.query));
  }
}

TEST(EngineSuffixIndexTest, ClearCacheDropsTheRetainedIndex) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 64});
  ASSERT_OK(engine.ExecuteQueries(corpus, {SubstringsSpec(0, kFirstSubstrings)})
                .status());
  EXPECT_EQ(engine.suffix_index_builds(), 1);
  engine.ClearCache();
  ASSERT_OK_AND_ASSIGN(
      auto results,
      engine.ExecuteQueries(corpus, {SubstringsSpec(0, kFirstSubstrings)}));
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_EQ(engine.suffix_index_builds(), 2);
  ASSERT_OK_AND_ASSIGN(
      core::SuffixScan scan,
      core::SuffixScan::Build(corpus.sequence(0).symbols(), 2));
  ExpectSamePayload(results[0], DirectSubstrings(scan, kFirstSubstrings));
}

/// Every field of two results, doubles compared exactly.
void ExpectSameResult(const api::QueryResult& a, const api::QueryResult& b) {
  EXPECT_EQ(a.sequence_index, b.sequence_index);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_TRUE(a.status.ok());
  EXPECT_TRUE(b.status.ok());
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.payload.index(), b.payload.index());
  EXPECT_EQ(a.match_count(), b.match_count());
  const auto same = [](const core::Substring& x, const core::Substring& y) {
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.chi_square, y.chi_square);
  };
  same(a.best(), b.best());
  ASSERT_EQ(a.substrings().size(), b.substrings().size());
  for (size_t r = 0; r < a.substrings().size(); ++r) {
    same(a.substrings()[r], b.substrings()[r]);
  }
  EXPECT_EQ(a.stats().positions_examined, b.stats().positions_examined);
  EXPECT_EQ(a.stats().start_positions, b.stats().start_positions);
  EXPECT_EQ(a.stats().skip_events, b.stats().skip_events);
  EXPECT_EQ(a.stats().positions_skipped, b.stats().positions_skipped);
  if (const auto* pa = std::get_if<api::SubstringsPayload>(&a.payload)) {
    const auto& pb = std::get<api::SubstringsPayload>(b.payload);
    EXPECT_EQ(pa->counts, pb.counts);
    EXPECT_EQ(pa->p_values, pb.p_values);
  }
}

TEST(QueryEngineTest, InvalidQueriesFailOnlyThemselves) {
  Corpus corpus = MakeCorpus();
  std::vector<api::QuerySpec> valid = MakeAllKindQueries(1);
  valid.push_back(valid[1]);  // A duplicate: served by the first's run.

  api::QuerySpec zero_t;  // Invalid parameter.
  zero_t.sequence_index = 1;
  zero_t.request = api::TopTQuery{0};
  api::QuerySpec no_record;  // Sequence index out of range.
  no_record.sequence_index = corpus.size();
  api::QuerySpec bad_model;  // Rejected when its context is built.
  bad_model.sequence_index = 1;
  bad_model.model = api::ModelSpec::Multinomial({0.9, 0.3});
  api::QuerySpec bad_window;  // Last position.
  bad_window.sequence_index = 1;
  bad_window.request = api::LengthBoundedQuery{10, 5};

  // Invalid queries first, in the middle and last.
  std::vector<api::QuerySpec> mixed = {zero_t};
  std::vector<size_t> valid_at;
  for (size_t v = 0; v < valid.size(); ++v) {
    if (v == valid.size() / 2) {
      mixed.push_back(no_record);
      mixed.push_back(bad_model);
    }
    valid_at.push_back(mixed.size());
    mixed.push_back(valid[v]);
  }
  mixed.push_back(bad_window);

  Engine reference({.num_threads = 2, .cache_capacity = 64});
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> expected,
                       reference.ExecuteQueries(corpus, valid));
  Engine engine({.num_threads = 2, .cache_capacity = 64});
  ASSERT_OK_AND_ASSIGN(std::vector<api::QueryResult> results,
                       engine.ExecuteQueries(corpus, mixed));
  ASSERT_EQ(results.size(), mixed.size());
  for (size_t v = 0; v < valid.size(); ++v) {
    SCOPED_TRACE(StrCat("valid query ", v));
    EXPECT_EQ(results[valid_at[v]].query_index,
              static_cast<int64_t>(valid_at[v]));
    ExpectSameResult(results[valid_at[v]], expected[v]);
  }
  EXPECT_TRUE(results[valid_at.back()].cache_hit);

  const std::vector<std::pair<size_t, std::string>> failures = {
      {0, "field t must be in [1, "},
      {valid_at[valid.size() / 2] - 2, "field seq: index 6 out of range"},
      {valid_at[valid.size() / 2] - 1, "field model: "},
      {mixed.size() - 1, "field max_length (5)"}};
  for (const auto& [at, field] : failures) {
    const api::QueryResult& failed = results[at];
    EXPECT_TRUE(failed.status.IsInvalidArgument()) << at;
    EXPECT_EQ(failed.status.message().rfind(field, 0), 0u)
        << failed.status.message();
    EXPECT_EQ(failed.query_index, static_cast<int64_t>(at));
    EXPECT_EQ(failed.kind, mixed[at].kind());
    EXPECT_FALSE(failed.cache_hit);
  }
  EXPECT_EQ(FirstQueryError(results).message(),
            StrCat("query 0 (topt): ", results[0].status.message()));

  // Only the valid queries counted, looked up the cache or filled it.
  EXPECT_EQ(engine.queries_executed(), static_cast<int64_t>(valid.size()));
  EXPECT_EQ(engine.batches_executed(), 1);
  EXPECT_EQ(engine.cache_stats().lookups(),
            static_cast<int64_t>(valid.size()));
  EXPECT_EQ(engine.cache_size(), valid.size() - 1);
  const uint64_t record = FingerprintSequence(corpus.sequence(1));
  for (const api::QuerySpec* spec : {&zero_t, &bad_model, &bad_window}) {
    EXPECT_FALSE(engine.result_cache()
                     .Lookup({record, api::FingerprintQuery(*spec)})
                     .has_value())
        << api::FormatQuery(*spec);
  }

  // A batch whose every query fails counts nothing.
  ASSERT_OK_AND_ASSIGN(results,
                       engine.ExecuteQueries(corpus, {zero_t, bad_window}));
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_EQ(engine.queries_executed(), static_cast<int64_t>(valid.size()));
  EXPECT_EQ(engine.batches_executed(), 1);
}

TEST(QueryEngineTest, CacheKeysOnCanonicalBytes) {
  // Two specs with distinct canonical forms are distinct computations;
  // the same spec resubmitted is a hit.
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 64});
  std::vector<api::QuerySpec> queries = MakeAllKindQueries(0);
  ASSERT_OK_AND_ASSIGN(auto cold, engine.ExecuteQueries(corpus, queries));
  EXPECT_EQ(engine.cache_stats().misses,
            static_cast<int64_t>(queries.size()));
  ASSERT_OK_AND_ASSIGN(auto warm, engine.ExecuteQueries(corpus, queries));
  EXPECT_EQ(engine.cache_stats().hits, static_cast<int64_t>(queries.size()));
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit);
    EXPECT_TRUE(warm[i].cache_hit);
    EXPECT_EQ(warm[i].best().chi_square, cold[i].best().chi_square);
    EXPECT_EQ(warm[i].stats().positions_examined, 0);
  }
}

TEST(EngineStatsTest, SnapshotAggregatesEngineAndStreams) {
  Corpus corpus = MakeCorpus();
  Engine engine({.num_threads = 1, .cache_capacity = 64});
  std::vector<api::QuerySpec> queries = MakeAllKindQueries(0);
  ASSERT_OK(engine.ExecuteQueries(corpus, queries).status());
  ASSERT_OK(engine.ExecuteQueries(corpus, queries).status());

  StreamManager streams;
  ASSERT_OK(streams.CreateStream("s", {0.5, 0.5}));
  const std::vector<uint8_t> symbols = {0, 1, 0, 1};
  ASSERT_OK(streams.Append("s", symbols).status());

  EngineStats stats = CollectEngineStats(&engine, &streams);
  EXPECT_EQ(stats.queries_executed,
            static_cast<int64_t>(2 * queries.size()));
  EXPECT_EQ(stats.batches_executed, 2);
  EXPECT_EQ(stats.cache.hits, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(stats.cache.misses, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(stats.cache_capacity, 64);
  EXPECT_EQ(stats.open_streams, 1);
  EXPECT_EQ(stats.streams.streams_created, 1);
  EXPECT_EQ(stats.streams.symbols_ingested, 4);

  // One formatter feeds both the STATS wire line and `batch --verbose`,
  // so its shape is contract, not cosmetics.
  std::string line = FormatEngineStats(stats);
  for (const char* key :
       {"queries=", "batches=", "threads=", "cache_hits=", "cache_misses=",
        "cache_entries=", "cache_capacity=", "streams_open=",
        "streams_created=", "symbols_ingested=", "alarms_raised="}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  }
}

TEST(EngineStatsTest, NullSourcesYieldZeros) {
  EngineStats stats = CollectEngineStats(nullptr, nullptr);
  EXPECT_EQ(stats.queries_executed, 0);
  EXPECT_EQ(stats.batches_executed, 0);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.open_streams, 0);
  EXPECT_EQ(stats.streams.symbols_ingested, 0);
}

TEST(FingerprintTest, SequenceFingerprints) {
  seq::Rng rng(7);
  seq::Sequence a = seq::GenerateNull(2, 100, rng);
  seq::Sequence b = seq::GenerateNull(2, 100, rng);
  EXPECT_NE(FingerprintSequence(a), FingerprintSequence(b));
  EXPECT_EQ(FingerprintSequence(a), FingerprintSequence(a));
}

}  // namespace
}  // namespace engine
}  // namespace sigsub
