#include "stats/descriptive.h"

#include <cmath>

#include "common/check.h"

namespace sigsub {
namespace stats {

double Mean(std::span<const double> xs) {
  SIGSUB_CHECK(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  SIGSUB_CHECK(xs.size() >= 2);
  double mean = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

LinearFit FitLine(std::span<const double> xs, std::span<const double> ys) {
  SIGSUB_CHECK(xs.size() == ys.size());
  SIGSUB_CHECK(xs.size() >= 2);
  double n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  double denom = n * sxx - sx * sx;
  SIGSUB_CHECK(denom != 0.0);
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_tot = syy - sy * sy / n;
  if (ss_tot <= 0.0) {
    fit.r_squared = 1.0;
  } else {
    double ss_res = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      double resid = ys[i] - (fit.slope * xs[i] + fit.intercept);
      ss_res += resid * resid;
    }
    fit.r_squared = 1.0 - ss_res / ss_tot;
  }
  return fit;
}

}  // namespace stats
}  // namespace sigsub
