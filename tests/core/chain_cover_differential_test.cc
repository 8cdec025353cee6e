// Differential suite for core::ChainCoverScan: every chain-cover interval
// kernel must return, bit for bit, what the serial Algorithm 1 loop it
// replaced returns (tests/testing/chain_cover_reference.h): the best
// substring, the top-t list, the threshold matches in order, match_count
// under a max_matches cap, the top-disjoint picks, every parallel shard's
// best, and all four ScanStats counters.
//
// The records cover the ways the lockstep window can go wrong: a floor
// that rises in every row (a constant string, a drifting bias), floors
// moved by planted runs, a threshold with thousands of matches (rows wait
// behind the leader), lengths that are not a multiple of the window, a
// min_length near n (empty and one-position rows) and a small max_length.

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/atomic_max.h"
#include "core/chi_square.h"
#include "core/length_bounded.h"
#include "core/min_length.h"
#include "core/mss.h"
#include "core/parallel.h"
#include "core/threshold.h"
#include "core/top_disjoint.h"
#include "core/top_t.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/rng.h"
#include "testing/chain_cover_reference.h"
#include "testing/disjoint_reference.h"

namespace sigsub {
namespace core {
namespace {

using ::sigsub::testing::ReferenceFindAboveThreshold;
using ::sigsub::testing::ReferenceFindMssInRange;
using ::sigsub::testing::ReferenceFindTopDisjoint;
using ::sigsub::testing::ReferenceFindTopT;
using ::sigsub::testing::ReferenceMssShardScan;

enum class Kind { kUniform, kGrouped, kSkewed };
enum class Shape { kDrawn, kConstant, kDrift, kPlanted };

struct Config {
  int k;
  Kind kind;
  Shape shape;
  int64_t n;
};

std::string Name(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  const char* kind = c.kind == Kind::kUniform   ? "Uniform"
                     : c.kind == Kind::kGrouped ? "Grouped"
                                                : "Skewed";
  const char* shape = c.shape == Shape::kDrawn      ? "Drawn"
                      : c.shape == Shape::kConstant ? "Constant"
                      : c.shape == Shape::kDrift    ? "Drift"
                                                    : "Planted";
  return "K" + std::to_string(c.k) + kind + shape + "N" + std::to_string(c.n);
}

/// Grouped: two interleaved weight classes (k = 4 is the daemon
/// workload's probs(0.3;0.2;0.2;0.3)); skewed: the harmonic null, every
/// probability distinct.
seq::MultinomialModel MakeModel(const Config& config) {
  if (config.kind == Kind::kUniform) {
    return seq::MultinomialModel::Uniform(config.k);
  }
  if (config.kind == Kind::kSkewed) {
    return seq::MultinomialModel::Harmonic(config.k);
  }
  if (config.k == 4) {
    return seq::MultinomialModel::Make({0.3, 0.2, 0.2, 0.3}).value();
  }
  std::vector<double> weights(config.k);
  double total = 0.0;
  for (int c = 0; c < config.k; ++c) {
    weights[c] = 1.0 + c % 2;
    total += weights[c];
  }
  for (double& w : weights) w /= total;
  return seq::MultinomialModel::Make(weights).value();
}

seq::Sequence MakeRecord(const Config& config,
                         const seq::MultinomialModel& model) {
  seq::Rng rng(7000 + 31 * static_cast<uint64_t>(config.k) +
               static_cast<uint64_t>(config.shape));
  const int k = config.k;
  const int64_t n = config.n;
  std::vector<uint8_t> symbols(static_cast<size_t>(n));
  switch (config.shape) {
    case Shape::kDrawn: {
      return seq::GenerateMultinomial(model, n, rng);
    }
    case Shape::kConstant:
      break;  // All symbol 0.
    case Shape::kDrift:
      // The chance of symbol 0 grows from 1/k to 1 along the record, so
      // the running best rises in almost every row.
      for (int64_t i = 0; i < n; ++i) {
        const double bias = static_cast<double>(i) / static_cast<double>(n);
        symbols[i] = rng.NextBernoulli(bias)
                         ? 0
                         : static_cast<uint8_t>(rng.NextBounded(k));
      }
      break;
    case Shape::kPlanted:
      // Uniform noise with runs of one symbol planted every ~n/5.
      for (int64_t i = 0; i < n; ++i) {
        symbols[i] = static_cast<uint8_t>(rng.NextBounded(k));
      }
      for (int64_t at = n / 7; at + 40 < n; at += n / 5) {
        const uint8_t symbol = static_cast<uint8_t>(rng.NextBounded(k));
        const int64_t run = 8 + static_cast<int64_t>(rng.NextBounded(32));
        for (int64_t i = at; i < at + run; ++i) symbols[i] = symbol;
      }
      break;
  }
  return seq::Sequence::FromSymbols(k, std::move(symbols)).value();
}

void ExpectSame(const Substring& got, const Substring& want,
                const std::string& what) {
  EXPECT_EQ(got.start, want.start) << what;
  EXPECT_EQ(got.end, want.end) << what;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.chi_square),
            std::bit_cast<uint64_t>(want.chi_square))
      << what << ": " << got.chi_square << " vs " << want.chi_square;
}

void ExpectSame(const std::vector<Substring>& got,
                const std::vector<Substring>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectSame(got[i], want[i], what + " #" + std::to_string(i));
  }
}

void ExpectSame(const ScanStats& got, const ScanStats& want,
                const std::string& what) {
  EXPECT_EQ(got.positions_examined, want.positions_examined) << what;
  EXPECT_EQ(got.start_positions, want.start_positions) << what;
  EXPECT_EQ(got.skip_events, want.skip_events) << what;
  EXPECT_EQ(got.positions_skipped, want.positions_skipped) << what;
}

class ChainCoverDifferentialTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    model_ = MakeModel(GetParam());
    record_ = MakeRecord(GetParam(), model_);
    counts_.emplace(record_);
    context_.emplace(model_);
  }

  void ExpectMssInRange(int64_t lo, int64_t hi, int64_t min_length,
                        int64_t max_length) {
    const std::string what = "FindMssInRange(" + std::to_string(lo) + ", " +
                             std::to_string(hi) + ", " +
                             std::to_string(min_length) + ", " +
                             std::to_string(max_length) + ")";
    const MssResult got =
        FindMssInRange(*counts_, *context_, lo, hi, min_length, max_length);
    const MssResult want = ReferenceFindMssInRange(*counts_, *context_, lo,
                                                   hi, min_length, max_length);
    ExpectSame(got.best, want.best, what);
    ExpectSame(got.stats, want.stats, what);
  }

  seq::MultinomialModel model_ = seq::MultinomialModel::Uniform(2);
  seq::Sequence record_{2};
  std::optional<seq::PrefixCounts> counts_;
  std::optional<ChiSquareContext> context_;
};

TEST_P(ChainCoverDifferentialTest, MssMinLengthAndLengthBounded) {
  const int64_t n = GetParam().n;
  const MssResult mss = FindMss(*counts_, *context_);
  const MssResult want = ReferenceFindMssInRange(*counts_, *context_, 0, n,
                                                 /*min_length=*/1, n);
  ExpectSame(mss.best, want.best, "mss");
  ExpectSame(mss.stats, want.stats, "mss");

  for (int64_t min_length : {int64_t{2}, int64_t{7}, n / 3, n - 5, n - 1, n}) {
    const MssResult got = FindMssMinLength(*counts_, *context_, min_length);
    const MssResult ref = ReferenceFindMssInRange(*counts_, *context_, 0, n,
                                                  min_length, n);
    const std::string what = "minlen " + std::to_string(min_length);
    ExpectSame(got.best, ref.best, what);
    ExpectSame(got.stats, ref.stats, what);
  }
  for (auto [min_length, max_length] :
       {std::pair<int64_t, int64_t>{1, 1}, {1, 3}, {2, 2}, {5, 17},
        {16, 256}, {n - 3, n}}) {
    const MssResult got =
        FindMssLengthBounded(*counts_, *context_, min_length, max_length);
    const MssResult ref = ReferenceFindMssInRange(*counts_, *context_, 0, n,
                                                  min_length, max_length);
    const std::string what = "lenbound " + std::to_string(min_length) + ".." +
                             std::to_string(max_length);
    ExpectSame(got.best, ref.best, what);
    ExpectSame(got.stats, ref.stats, what);
  }
  // Sub-ranges, as top-disjoint scans them, with rows past the range
  // (max_length > hi − lo) and ranges shorter than min_length.
  ExpectMssInRange(n / 5, n - n / 7, 3, n);
  ExpectMssInRange(1, 6, 3, 4);
  ExpectMssInRange(n / 2, n / 2 + 2, 3, n);
}

TEST_P(ChainCoverDifferentialTest, TopT) {
  for (int64_t t : {1, 10, 250}) {
    const TopTResult got = FindTopT(*counts_, *context_, t);
    const TopTResult want = ReferenceFindTopT(*counts_, *context_, t);
    const std::string what = "topt " + std::to_string(t);
    ExpectSame(got.top, want.top, what);
    ExpectSame(got.stats, want.stats, what);
  }
}

TEST_P(ChainCoverDifferentialTest, ThresholdMatchesInOrder) {
  const int k = GetParam().k;
  // A cutoff near the null's mean (k − 1) matches thousands of
  // substrings; a high one matches few or none.
  for (double alpha0 : {static_cast<double>(k), 4.0 * k, 1e9}) {
    for (int64_t max_matches :
         {int64_t{0}, int64_t{5}, std::numeric_limits<int64_t>::max()}) {
      ThresholdOptions options;
      options.max_matches = max_matches;
      const ThresholdResult got =
          FindAboveThreshold(*counts_, *context_, alpha0, options);
      const ThresholdResult want = ReferenceFindAboveThreshold(
          *counts_, *context_, alpha0, max_matches);
      const std::string what = "threshold " + std::to_string(alpha0) +
                               " cap " + std::to_string(max_matches);
      EXPECT_EQ(got.match_count, want.match_count) << what;
      ExpectSame(got.matches, want.matches, what);
      if (want.match_count > 0) ExpectSame(got.best, want.best, what);
      ExpectSame(got.stats, want.stats, what);
    }
  }
}

TEST_P(ChainCoverDifferentialTest, TopDisjoint) {
  for (int64_t min_length : {1, 8}) {
    TopDisjointOptions options;
    options.t = 6;
    options.min_length = min_length;
    const std::vector<Substring> got =
        FindTopDisjoint(*counts_, *context_, options);
    const std::vector<Substring> want = ReferenceFindTopDisjoint(
        *counts_, *context_, options, &ReferenceFindMssInRange);
    ExpectSame(got, want, "disjoint min_length " + std::to_string(min_length));
  }
}

TEST_P(ChainCoverDifferentialTest, ShardsInTurnOnASharedMaximum) {
  for (int num_shards : {1, 3, 4}) {
    AtomicMax shared;
    AtomicMax reference_shared;
    for (int shard = 0; shard < num_shards; ++shard) {
      const MssResult got =
          MssShardScan(*counts_, *context_, shard, num_shards, &shared);
      const MssResult want = ReferenceMssShardScan(
          *counts_, *context_, shard, num_shards, &reference_shared);
      const std::string what = "shard " + std::to_string(shard) + "/" +
                               std::to_string(num_shards);
      ExpectSame(got.best, want.best, what);
      ExpectSame(got.stats, want.stats, what);
    }
  }
}

std::vector<Config> Configs() {
  std::vector<Config> configs;
  for (int k : {2, 4, 8, 26}) {
    for (Kind kind : {Kind::kUniform, Kind::kGrouped, Kind::kSkewed}) {
      // At k = 2 the only grouped model is the uniform one.
      if (k == 2 && kind == Kind::kGrouped) continue;
      configs.push_back(Config{k, kind, Shape::kDrawn, 1203});
    }
    configs.push_back(Config{k, Kind::kUniform, Shape::kConstant, 1001});
    configs.push_back(Config{k, Kind::kUniform, Shape::kDrift, 1502});
    configs.push_back(Config{k, Kind::kSkewed, Shape::kPlanted, 1999});
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Records, ChainCoverDifferentialTest,
                         ::testing::ValuesIn(Configs()), Name);

// At the low cutoff the drawn k=4 record has thousands of matches, so many
// rows wait behind the leader in ThresholdMatchesInOrder. Checked here so
// that a change of generator or cutoff cannot quietly make that case easy.
TEST(ChainCoverDifferentialRecords, ThresholdCaseHasThousandsOfMatches) {
  seq::Rng rng(7000 + 31 * 4);
  const seq::MultinomialModel model = seq::MultinomialModel::Uniform(4);
  const seq::Sequence record = seq::GenerateMultinomial(model, 1203, rng);
  const seq::PrefixCounts counts(record);
  const ChiSquareContext context(model);
  EXPECT_GT(FindAboveThreshold(counts, context, 4.0).match_count, 1000);
}

}  // namespace
}  // namespace core
}  // namespace sigsub
