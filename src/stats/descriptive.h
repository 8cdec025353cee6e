#ifndef SIGSUB_STATS_DESCRIPTIVE_H_
#define SIGSUB_STATS_DESCRIPTIVE_H_

#include <span>
#include <vector>

namespace sigsub {
namespace stats {

/// Small descriptive-statistics helpers used by the benchmark harness
/// (e.g. fitting the slope of log-iterations vs log-n, the paper's
/// Figures 1, 2 and 5) and by generator tests.

double Mean(std::span<const double> xs);
double Variance(std::span<const double> xs);  // Unbiased (n-1 denominator).
double StdDev(std::span<const double> xs);

/// Ordinary least squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Requires xs.size() == ys.size() >= 2 and non-constant xs.
LinearFit FitLine(std::span<const double> xs, std::span<const double> ys);

}  // namespace stats
}  // namespace sigsub

#endif  // SIGSUB_STATS_DESCRIPTIVE_H_
