#include "stats/chi_squared.h"

#include <cmath>

#include "gtest/gtest.h"

namespace sigsub {
namespace stats {
namespace {

TEST(ChiSquaredTest, MakeValidatesDof) {
  EXPECT_TRUE(ChiSquaredDistribution::Make(1).ok());
  EXPECT_TRUE(ChiSquaredDistribution::Make(100).ok());
  EXPECT_TRUE(ChiSquaredDistribution::Make(0).status().IsInvalidArgument());
  EXPECT_TRUE(ChiSquaredDistribution::Make(-3).status().IsInvalidArgument());
}

TEST(ChiSquaredTest, MomentsMatchTheory) {
  ChiSquaredDistribution d(7);
  EXPECT_DOUBLE_EQ(d.mean(), 7.0);
  EXPECT_DOUBLE_EQ(d.variance(), 14.0);
}

TEST(ChiSquaredTest, TwoDofClosedForm) {
  // χ²(2): cdf(x) = 1 − e^{−x/2} (used in the paper's Lemma 3 proof).
  ChiSquaredDistribution d(2);
  for (double x : {0.1, 0.7, 1.0, 3.0, 10.0, 25.0}) {
    EXPECT_NEAR(d.Cdf(x), 1.0 - std::exp(-x / 2.0), 1e-13) << x;
    EXPECT_NEAR(d.Sf(x), std::exp(-x / 2.0), 1e-13) << x;
    EXPECT_NEAR(d.Pdf(x), 0.5 * std::exp(-x / 2.0), 1e-13) << x;
  }
}

TEST(ChiSquaredTest, StandardCriticalValuesOneDof) {
  // Classic table values for χ²(1).
  ChiSquaredDistribution d(1);
  EXPECT_NEAR(d.Cdf(3.841458820694124), 0.95, 1e-9);
  EXPECT_NEAR(d.Cdf(6.634896601021214), 0.99, 1e-9);
  EXPECT_NEAR(d.CriticalValue(0.05), 3.841458820694124, 1e-7);
  EXPECT_NEAR(d.CriticalValue(0.01), 6.634896601021214, 1e-7);
}

TEST(ChiSquaredTest, StandardCriticalValuesManyDof) {
  // χ²(4) 95th percentile = 9.487729..., χ²(9) 95th = 16.918977...
  EXPECT_NEAR(ChiSquaredDistribution(4).CriticalValue(0.05),
              9.487729036781154, 1e-7);
  EXPECT_NEAR(ChiSquaredDistribution(9).CriticalValue(0.05),
              16.918977604620448, 1e-7);
}

TEST(ChiSquaredTest, PdfIntegratesToCdf) {
  // Trapezoidal integration of the pdf should track the cdf.
  ChiSquaredDistribution d(5);
  double integral = 0.0;
  double prev_pdf = d.Pdf(0.0);
  const double dx = 1e-3;
  for (double x = dx; x <= 20.0; x += dx) {
    double pdf = d.Pdf(x);
    integral += 0.5 * (pdf + prev_pdf) * dx;
    prev_pdf = pdf;
  }
  EXPECT_NEAR(integral, d.Cdf(20.0), 1e-5);
}

TEST(ChiSquaredTest, PdfEdgeCasesAtZero) {
  EXPECT_TRUE(std::isinf(ChiSquaredDistribution(1).Pdf(0.0)));
  EXPECT_DOUBLE_EQ(ChiSquaredDistribution(2).Pdf(0.0), 0.5);
  EXPECT_DOUBLE_EQ(ChiSquaredDistribution(3).Pdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquaredDistribution(3).Pdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquaredDistribution(3).Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquaredDistribution(3).Sf(-1.0), 1.0);
}

TEST(ChiSquaredTest, CriticalValueInvertssf) {
  for (int dof : {1, 2, 4, 9}) {
    ChiSquaredDistribution d(dof);
    for (double alpha : {0.10, 0.05, 0.01, 1e-4, 1e-8}) {
      double z = d.CriticalValue(alpha);
      EXPECT_NEAR(d.Sf(z) / alpha, 1.0, 1e-6)
          << "dof=" << dof << " alpha=" << alpha;
    }
  }
}

TEST(ChiSquaredTest, DeepTailPValue) {
  // A very large statistic must give a tiny but positive p-value
  // (direct Sf computation, no 1-Cdf cancellation).
  ChiSquaredDistribution d(1);
  double p = d.Sf(300.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1e-60);
}

}  // namespace
}  // namespace stats
}  // namespace sigsub
