#include "stats/gamma.h"

#include <cmath>

#include "gtest/gtest.h"

namespace sigsub {
namespace stats {
namespace {

TEST(LogGammaTest, MatchesFactorials) {
  // Γ(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-14);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-14);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-10);
}

TEST(LogGammaTest, HalfIntegerValues) {
  // Γ(1/2) = sqrt(pi).
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-13);
  // Γ(3/2) = sqrt(pi)/2.
  EXPECT_NEAR(LogGamma(1.5), std::log(std::sqrt(M_PI) / 2.0), 1e-13);
}

TEST(RegularizedGammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(
      RegularizedGammaP(2.5, std::numeric_limits<double>::infinity()), 1.0);
}

TEST(RegularizedGammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^{-x}: the exponential CDF.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-13)
        << "x=" << x;
  }
}

TEST(RegularizedGammaTest, ErlangSpecialCase) {
  // P(2, x) = 1 - e^{-x}(1 + x).
  for (double x : {0.1, 1.0, 3.0, 8.0, 20.0}) {
    EXPECT_NEAR(RegularizedGammaP(2.0, x), 1.0 - std::exp(-x) * (1.0 + x),
                1e-13)
        << "x=" << x;
  }
}

TEST(RegularizedGammaTest, HalfShapeMatchesErf) {
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.01, 0.25, 1.0, 4.0, 9.0}) {
    EXPECT_NEAR(RegularizedGammaP(0.5, x), std::erf(std::sqrt(x)), 1e-12)
        << "x=" << x;
  }
}

TEST(RegularizedGammaTest, PAndQAreComplementary) {
  for (double a : {0.5, 1.0, 2.5, 7.0, 40.0}) {
    for (double x : {0.01, 0.5, 1.0, 3.0, 10.0, 60.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, MonotoneInX) {
  for (double a : {0.5, 2.0, 10.0}) {
    double prev = -1.0;
    for (double x = 0.0; x <= 40.0; x += 0.5) {
      double p = RegularizedGammaP(a, x);
      EXPECT_GE(p, prev) << "a=" << a << " x=" << x;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
  }
}

TEST(RegularizedGammaTest, DeepTailKeepsRelativePrecision) {
  // Q(1, x) = e^{-x} exactly; check far tail relative error.
  double q = RegularizedGammaQ(1.0, 500.0);
  double expected = std::exp(-500.0);
  EXPECT_GT(q, 0.0);
  EXPECT_NEAR(q / expected, 1.0, 1e-9);
}

}  // namespace
}  // namespace stats
}  // namespace sigsub
