// Cross-module integration tests: generator -> algorithms -> significance,
// exercising the same pipelines the examples and benchmarks use.

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"
#include "sigsub.h"
#include "testing/test_util.h"

namespace sigsub {
namespace {

TEST(PipelineTest, CryptologyRngAuditDetectsBias) {
  // Paper Section 7.4 / Table 2: X²_max of a biased binary RNG stream grows
  // with the same-symbol probability p. Audit three streams and check the
  // ordering and the benchmark property X²_max(p=0.5) ~ 2 ln n.
  const int64_t n = 20000;
  auto model = seq::MultinomialModel::Uniform(2);
  double prev = 0.0;
  for (double p : {0.5, 0.6, 0.8}) {
    seq::Rng rng(9000 + static_cast<uint64_t>(p * 100));
    seq::Sequence stream = seq::GenerateBiasedBinary(p, n, rng);
    auto mss = core::FindMss(stream, model);
    ASSERT_TRUE(mss.ok());
    EXPECT_GT(mss->best.chi_square, prev) << "p=" << p;
    prev = mss->best.chi_square;
  }
  // The unbiased stream's X²_max should be within a factor ~2.5 of 2 ln n.
  seq::Rng rng(1234);
  seq::Sequence fair = seq::GenerateBiasedBinary(0.5, n, rng);
  auto mss = core::FindMss(fair, model);
  ASSERT_TRUE(mss.ok());
  double benchmark = 2.0 * std::log(static_cast<double>(n));
  EXPECT_GT(mss->best.chi_square, benchmark / 2.5);
  EXPECT_LT(mss->best.chi_square, benchmark * 2.5);
}

TEST(PipelineTest, IntrusionDetectionViaThreshold) {
  // Event stream (k = 4) with a planted burst of one event type; the
  // threshold variant at a p-value-derived alpha0 must flag substrings
  // overlapping the burst and nothing before the burst's scale.
  seq::Rng rng(555);
  auto stream = seq::GenerateRegimes(
      4,
      {{3000, {0.25, 0.25, 0.25, 0.25}},
       {120, {0.7, 0.1, 0.1, 0.1}},
       {3000, {0.25, 0.25, 0.25, 0.25}}},
      rng);
  ASSERT_TRUE(stream.ok());
  auto model = seq::MultinomialModel::Uniform(4);
  // Bonferroni-style conservative threshold over ~n²/2 substrings.
  double n2 = 6120.0 * 6120.0 / 2.0;
  double alpha0 = stats::ChiSquareThresholdForPValue(0.001 / n2, 4);
  auto result = core::FindAboveThreshold(stream.value(), model, alpha0);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->match_count, 0);
  // Every match overlaps the planted burst [3000, 3120).
  for (const auto& match : result->matches) {
    EXPECT_LT(match.start, 3120);
    EXPECT_GT(match.end, 3000);
  }
}

TEST(PipelineTest, SportsTopDisjointRecoversErasInOrder) {
  io::RivalrySeries series = io::RivalrySeries::Default();
  double p = series.EmpiricalWinRate();
  auto model = seq::MultinomialModel::Make({1.0 - p, p}).value();
  core::TopDisjointOptions options;
  options.t = 5;
  options.min_length = 10;
  auto patches = core::FindTopDisjoint(series.outcomes(), model, options);
  ASSERT_TRUE(patches.ok());
  ASSERT_EQ(patches->size(), 5u);
  // The strong planted eras must be recovered. The weakest eras sit near
  // the null-noise X² level (exactly like the paper's marginal fifth
  // patch, X² = 12.05), so we require the two dominant eras with majority
  // overlap and at least 3 of 5 eras hit overall.
  auto overlap_of = [&](const io::PlantedEra& era) {
    int64_t lo = era.start_game;
    int64_t hi = era.start_game + era.num_games;
    int64_t best_overlap = 0;
    for (const auto& patch : *patches) {
      best_overlap = std::max(
          best_overlap, std::min(patch.end, hi) - std::max(patch.start, lo));
    }
    return best_overlap;
  };
  int recovered = 0;
  for (const auto& era : series.config().eras) {
    if (overlap_of(era) > era.num_games / 3) ++recovered;
    // Dominant eras: the 204-game dynasty and the 39-game glory period.
    if (era.num_games >= 39 && era.num_games != 42) {
      EXPECT_GT(overlap_of(era), era.num_games / 2) << era.label;
    }
  }
  EXPECT_GE(recovered, 3);
}

TEST(PipelineTest, MarketSeriesFastMatchesNaiveOnPrefix) {
  // Exactness on real(istic) application data, not just synthetic nulls:
  // compare against the O(n²) oracle on a 3000-day prefix of the IBM
  // series.
  io::MarketSeries ibm = io::MarketSeries::Ibm();
  std::vector<uint8_t> prefix;
  for (int64_t i = 0; i < 3000; ++i) prefix.push_back(ibm.updown()[i]);
  seq::Sequence s = seq::Sequence::FromSymbols(2, prefix).value();
  double p = ibm.EmpiricalUpRate();
  auto model = seq::MultinomialModel::Make({1.0 - p, p}).value();
  auto fast = core::FindMss(s, model);
  auto slow = core::NaiveFindMss(s, model);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_X2_EQ(fast->best.chi_square, slow->best.chi_square);
}

TEST(PipelineTest, AllFourAlgorithmsAgreeOnWhoWins) {
  // Table 1/4/6 shape: Trivial == Our == exact; ARLM close; AGMM <= all.
  seq::Rng rng(987);
  seq::Sequence s = seq::GenerateNull(2, 3000, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto ours = core::FindMss(s, model);
  auto trivial = core::NaiveFindMss(s, model);
  auto blocked = core::FindMssBlocked(s, model);
  auto arlm = core::FindMssArlm(s, model);
  auto agmm = core::FindMssAgmm(s, model);
  ASSERT_TRUE(ours.ok());
  ASSERT_TRUE(trivial.ok());
  ASSERT_TRUE(blocked.ok());
  ASSERT_TRUE(arlm.ok());
  ASSERT_TRUE(agmm.ok());
  EXPECT_X2_EQ(ours->best.chi_square, trivial->best.chi_square);
  EXPECT_X2_EQ(blocked->best.chi_square, trivial->best.chi_square);
  EXPECT_LE(arlm->best.chi_square, trivial->best.chi_square + 1e-9);
  EXPECT_LE(agmm->best.chi_square, arlm->best.chi_square + 1e-9);
}

TEST(PipelineTest, PValueAnnotationFlagsPlantedAnomalyOnly) {
  seq::Rng rng(31415);
  auto s = seq::GenerateRegimes(
      2, {{5000, {0.5, 0.5}}, {200, {0.85, 0.15}}, {5000, {0.5, 0.5}}}, rng);
  ASSERT_TRUE(s.ok());
  auto model = seq::MultinomialModel::Uniform(2);
  auto mss = core::FindMss(s.value(), model);
  ASSERT_TRUE(mss.ok());
  auto scored =
      core::ScoreSubstring(s.value(), model, mss->best.start, mss->best.end);
  ASSERT_TRUE(scored.ok());
  // The planted window is a ~10-sigma event; p-value must be tiny.
  EXPECT_LT(scored->p_value, 1e-12);
  // A pure null string of the same length should NOT reach that level.
  seq::Rng rng2(27182);
  seq::Sequence null_string = seq::GenerateNull(2, 10200, rng2);
  auto null_mss = core::FindMss(null_string, model);
  ASSERT_TRUE(null_mss.ok());
  EXPECT_GT(core::SubstringPValue(null_mss->best.chi_square, 2), 1e-12);
}

TEST(PipelineTest, GrowthOfX2MaxTracksTwoLnN) {
  // Paper Figure 2 / conclusion: E[X²_max] ≈ 2 ln n for null strings.
  // Average over a few seeds at two sizes and check the growth ratio.
  auto model = seq::MultinomialModel::Uniform(2);
  auto mean_x2max = [&](int64_t n, uint64_t seed_base) {
    double total = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
      seq::Rng rng(seed_base + trial);
      seq::Sequence s = seq::GenerateNull(2, n, rng);
      auto mss = core::FindMss(s, model);
      EXPECT_TRUE(mss.ok());
      total += mss->best.chi_square;
    }
    return total / 5.0;
  };
  double at_1k = mean_x2max(1000, 100);
  double at_16k = mean_x2max(16000, 200);
  EXPECT_GT(at_16k, at_1k);
  // Expected difference 2 ln 16 ≈ 5.5; allow generous slack.
  EXPECT_NEAR(at_16k - at_1k, 5.5, 4.5);
}

}  // namespace
}  // namespace sigsub
