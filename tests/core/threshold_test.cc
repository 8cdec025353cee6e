#include "core/threshold.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "core/mss.h"
#include "core/naive.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "stats/count_statistics.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

std::vector<Substring> Sorted(std::vector<Substring> subs) {
  std::sort(subs.begin(), subs.end(),
            [](const Substring& a, const Substring& b) {
              return std::tie(a.start, a.end) < std::tie(b.start, b.end);
            });
  return subs;
}

TEST(FindAboveThresholdTest, ValidatesInput) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  EXPECT_TRUE(FindAboveThreshold(s, model, -1.0).status().IsInvalidArgument());
  seq::Sequence empty(2);
  EXPECT_TRUE(
      FindAboveThreshold(empty, model, 1.0).status().IsInvalidArgument());
}

TEST(FindAboveThresholdTest, RejectsNonFiniteCutoff) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  EXPECT_TRUE(FindAboveThreshold(s, model, std::nan(""))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      FindAboveThreshold(s, model, std::numeric_limits<double>::infinity())
          .status()
          .IsInvalidArgument());
}

TEST(FindAboveThresholdTest, HugeThresholdFindsNothing) {
  seq::Rng rng(2);
  seq::Sequence s = seq::GenerateNull(2, 300, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto result = FindAboveThreshold(s, model, 1e9);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->match_count, 0);
  EXPECT_TRUE(result->matches.empty());
  // And it should be dramatically cheaper than the trivial scan.
  EXPECT_LT(result->stats.positions_examined, TrivialScanPositions(300) / 2);
}

TEST(FindAboveThresholdTest, ZeroThresholdMatchesAllPositiveSubstrings) {
  seq::Rng rng(3);
  seq::Sequence s = seq::GenerateNull(2, 60, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto fast = FindAboveThreshold(s, model, 0.0);
  auto slow = NaiveFindAboveThreshold(s, model, 0.0);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->match_count, slow->match_count);
  // With alpha0 = 0 nothing can be skipped except exact-zero substrings.
  EXPECT_GT(fast->match_count, 0);
}

TEST(FindAboveThresholdTest, MatchesContainTheMss) {
  seq::Rng rng(4);
  seq::Sequence s = seq::GenerateNull(2, 400, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto mss = FindMss(s, model);
  ASSERT_TRUE(mss.ok());
  double alpha0 = mss->best.chi_square * 0.9;
  auto result = FindAboveThreshold(s, model, alpha0);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->match_count, 0);
  EXPECT_X2_EQ(result->best.chi_square, mss->best.chi_square);
  bool found = false;
  for (const auto& match : result->matches) {
    EXPECT_GT(match.chi_square, alpha0);
    if (match.start == mss->best.start && match.end == mss->best.end) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FindAboveThresholdTest, MaxMatchesCapsListButNotCount) {
  seq::Rng rng(5);
  seq::Sequence s = seq::GenerateNull(2, 200, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  ThresholdOptions options;
  options.max_matches = 10;
  auto capped = FindAboveThreshold(s, model, 1.0, options);
  auto full = FindAboveThreshold(s, model, 1.0);
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(capped->match_count, full->match_count);
  EXPECT_EQ(static_cast<int64_t>(capped->matches.size()), 10);
  EXPECT_GT(full->match_count, 10);
}

class ThresholdEquivalence
    : public ::testing::TestWithParam<std::tuple<int64_t, int, double>> {};

TEST_P(ThresholdEquivalence, FastMatchesNaiveSetExactly) {
  auto [n, k, alpha0] = GetParam();
  seq::Rng rng(static_cast<uint64_t>(n * 13 + k * 3 +
                                     static_cast<uint64_t>(alpha0 * 10)));
  seq::Sequence s = seq::GenerateNull(k, n, rng);
  auto model = seq::MultinomialModel::Uniform(k);
  auto fast = FindAboveThreshold(s, model, alpha0);
  auto slow = NaiveFindAboveThreshold(s, model, alpha0);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(fast->match_count, slow->match_count)
      << "n=" << n << " k=" << k << " alpha0=" << alpha0;
  auto f = Sorted(fast->matches);
  auto sl = Sorted(slow->matches);
  ASSERT_EQ(f.size(), sl.size());
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i].start, sl[i].start) << i;
    EXPECT_EQ(f[i].end, sl[i].end) << i;
    EXPECT_X2_EQ(f[i].chi_square, sl[i].chi_square);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdEquivalence,
    ::testing::Combine(::testing::Values<int64_t>(10, 80, 400),
                       ::testing::Values(2, 4),
                       ::testing::Values(0.5, 2.0, 5.0, 10.0, 20.0)),
    [](const ::testing::TestParamInfo<ThresholdEquivalence::ParamType>&
           info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_a" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
    });

TEST(FindAboveThresholdTest, IterationsDropSharplyWithAlpha) {
  // Paper Figure 6's shape: iterations fall steeply as alpha0 passes the
  // typical substring score.
  seq::Rng rng(6);
  seq::Sequence s = seq::GenerateNull(2, 5000, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  int64_t prev = INT64_MAX;
  for (double alpha0 : {1.0, 5.0, 15.0, 40.0}) {
    ThresholdOptions options;
    options.max_matches = 0;  // Count only.
    auto result = FindAboveThreshold(s, model, alpha0, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->stats.positions_examined, prev);
    prev = result->stats.positions_examined;
  }
}

TEST(FindAboveThresholdTest, PValueDrivenThreshold) {
  // End-to-end: choose alpha0 from a significance level and verify all
  // returned substrings are significant at that level.
  seq::Rng rng(7);
  seq::Sequence s = seq::GenerateNull(2, 1000, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  double alpha0 = stats::ChiSquareThresholdForPValue(1e-4, 2);
  auto result = FindAboveThreshold(s, model, alpha0);
  ASSERT_TRUE(result.ok());
  for (const auto& match : result->matches) {
    EXPECT_LT(stats::ChiSquarePValue(match.chi_square, 2), 1e-4);
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
