#include "stats/descriptive.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace sigsub {
namespace stats {
namespace {

TEST(DescriptiveTest, MeanAndVariance) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  // Sum of squared deviations = 32; unbiased variance = 32/7.
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, SingleValueMean) {
  std::vector<double> xs{3.25};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.25);
}

TEST(FitLineTest, ExactLine) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys{3.0, 5.0, 7.0, 9.0};  // y = 2x + 1.
  LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, NoisyLineRecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    double x = 0.1 * i;
    xs.push_back(x);
    // Deterministic "noise" with zero mean trend.
    ys.push_back(1.5 * x - 2.0 + 0.05 * std::sin(17.0 * x));
  }
  LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 1.5, 0.01);
  EXPECT_NEAR(fit.intercept, -2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(FitLineTest, LogLogPowerLaw) {
  // The harness's main use: fit ln(iterations) vs ln(n) for n^{1.5}.
  std::vector<double> xs, ys;
  for (double n : {512.0, 1024.0, 2048.0, 4096.0, 8192.0}) {
    xs.push_back(std::log(n));
    ys.push_back(std::log(3.7 * std::pow(n, 1.5)));
  }
  LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
}

}  // namespace
}  // namespace stats
}  // namespace sigsub
