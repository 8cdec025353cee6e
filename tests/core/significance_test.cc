#include "core/significance.h"

#include <cmath>

#include "core/mss.h"
#include "gtest/gtest.h"
#include "seq/alphabet.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "stats/chi_squared.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

TEST(SubstringPValueTest, MatchesChiSquareSurvival) {
  stats::ChiSquaredDistribution d1(1);
  EXPECT_DOUBLE_EQ(SubstringPValue(16.2, 2), d1.Sf(16.2));
  stats::ChiSquaredDistribution d4(4);
  EXPECT_DOUBLE_EQ(SubstringPValue(7.0, 5), d4.Sf(7.0));
}

TEST(SubstringPValueTest, ZeroStatisticHasPValueOne) {
  EXPECT_DOUBLE_EQ(SubstringPValue(0.0, 2), 1.0);
}

TEST(ScoreSubstringTest, CoinExample) {
  // "1111111111111111111 0": 19 ones and 1 zero under a fair model.
  seq::Alphabet binary = seq::Alphabet::Binary();
  auto s = seq::Sequence::FromString(binary, "11111111111111111110");
  ASSERT_TRUE(s.ok());
  auto model = seq::MultinomialModel::Uniform(2);
  auto scored = ScoreSubstring(s.value(), model, 0, 20);
  ASSERT_TRUE(scored.ok());
  EXPECT_NEAR(scored->substring.chi_square, 16.2, 1e-10);
  EXPECT_NEAR(scored->p_value, 5.7e-5, 2e-5);
  EXPECT_GT(scored->g2, 0.0);
}

TEST(ScoreSubstringTest, ValidatesBounds) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  EXPECT_TRUE(ScoreSubstring(s, model, -1, 5).status().IsOutOfRange());
  EXPECT_TRUE(ScoreSubstring(s, model, 5, 5).status().IsOutOfRange());
  EXPECT_TRUE(ScoreSubstring(s, model, 0, 11).status().IsOutOfRange());
  auto wrong_model = seq::MultinomialModel::Uniform(3);
  EXPECT_TRUE(
      ScoreSubstring(s, wrong_model, 0, 5).status().IsInvalidArgument());
}

TEST(ScoreSubstringTest, AnnotatesMss) {
  seq::Rng rng(2);
  seq::Sequence s = seq::GenerateNull(2, 500, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto mss = FindMss(s, model);
  ASSERT_TRUE(mss.ok());
  auto scored = ScoreSubstring(s, model, mss->best.start, mss->best.end);
  ASSERT_TRUE(scored.ok());
  EXPECT_X2_EQ(scored->substring.chi_square, mss->best.chi_square);
  EXPECT_GT(scored->p_value, 0.0);
  EXPECT_LT(scored->p_value, 1.0);
}

TEST(ScoreSubstringTest, G2AndX2AgreeForMildDeviations) {
  // Large balanced-ish substring: the two statistics nearly coincide.
  std::vector<uint8_t> symbols;
  for (int i = 0; i < 5100; ++i) symbols.push_back(1);
  for (int i = 0; i < 4900; ++i) symbols.push_back(0);
  seq::Sequence s = seq::Sequence::FromSymbols(2, symbols).value();
  auto model = seq::MultinomialModel::Uniform(2);
  auto scored = ScoreSubstring(s, model, 0, s.size());
  ASSERT_TRUE(scored.ok());
  EXPECT_NEAR(scored->g2, scored->substring.chi_square,
              0.01 * scored->substring.chi_square);
}

TEST(ScoreSubstringTest, PValueDecreasesWithDeviation) {
  auto model = seq::MultinomialModel::Uniform(2);
  double prev = 1.1;
  for (int ones = 10; ones <= 18; ones += 2) {
    std::vector<uint8_t> symbols(20, 0);
    for (int i = 0; i < ones; ++i) symbols[i] = 1;
    seq::Sequence s = seq::Sequence::FromSymbols(2, symbols).value();
    auto scored = ScoreSubstring(s, model, 0, 20);
    ASSERT_TRUE(scored.ok());
    EXPECT_LT(scored->p_value, prev) << ones;
    prev = scored->p_value;
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
