#ifndef SIGSUB_STATS_CHI_SQUARED_H_
#define SIGSUB_STATS_CHI_SQUARED_H_

#include "common/result.h"
#include "common/status.h"

namespace sigsub {
namespace stats {

/// The chi-square distribution χ²(k) with `dof` degrees of freedom.
///
/// Under the paper's null model, the Pearson X² statistic of a substring over
/// an alphabet of size k converges to χ²(k − 1) (paper Theorem 3); the
/// p-value of an observed X² value z is Sf(z) = 1 − Cdf(z).
class ChiSquaredDistribution {
 public:
  /// Creates a distribution; fails unless `dof` >= 1.
  static Result<ChiSquaredDistribution> Make(int dof);

  /// Direct constructor; requires dof >= 1 (checked).
  explicit ChiSquaredDistribution(int dof);

  int dof() const { return dof_; }
  double mean() const { return dof_; }
  double variance() const { return 2.0 * dof_; }

  /// Probability density at x (0 for x < 0).
  double Pdf(double x) const;

  /// Cumulative distribution function P(X <= x).
  double Cdf(double x) const;

  /// Survival function P(X > x) = 1 - Cdf(x); computed directly so deep
  /// tails (p-values ~1e-300) retain relative precision.
  double Sf(double x) const;

  /// The X² threshold whose p-value equals `alpha`, i.e. the x with
  /// Sf(x) = alpha; bisects on Sf so small alpha avoids cancellation.
  double CriticalValue(double alpha) const;

 private:
  int dof_;
};

/// The one alpha → X² cutoff rule of every query surface: a per-substring
/// p-value `alpha_p` converts through the χ²(dof) critical value and wins
/// over a raw X² cutoff `alpha0`. Negative values mean unset; with neither
/// set the cutoff is −∞ (every candidate qualifies). Requires alpha_p < 0
/// or alpha_p in (0, 1].
double ResolveX2Cutoff(double alpha0, double alpha_p, int dof);

}  // namespace stats
}  // namespace sigsub

#endif  // SIGSUB_STATS_CHI_SQUARED_H_
