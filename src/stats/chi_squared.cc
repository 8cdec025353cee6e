#include "stats/chi_squared.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/str_util.h"
#include "stats/gamma.h"

namespace sigsub {
namespace stats {

Result<ChiSquaredDistribution> ChiSquaredDistribution::Make(int dof) {
  if (dof < 1) {
    return Status::InvalidArgument(
        StrCat("chi-square degrees of freedom must be >= 1, got ", dof));
  }
  return ChiSquaredDistribution(dof);
}

ChiSquaredDistribution::ChiSquaredDistribution(int dof) : dof_(dof) {
  SIGSUB_CHECK(dof >= 1);
}

double ChiSquaredDistribution::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  double half_k = dof_ / 2.0;
  if (x == 0.0) {
    if (dof_ == 1) return std::numeric_limits<double>::infinity();
    if (dof_ == 2) return 0.5;
    return 0.0;
  }
  double log_pdf = (half_k - 1.0) * std::log(x) - x / 2.0 -
                   half_k * std::log(2.0) - LogGamma(half_k);
  return std::exp(log_pdf);
}

double ChiSquaredDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(dof_ / 2.0, x / 2.0);
}

double ChiSquaredDistribution::Sf(double x) const {
  if (x <= 0.0) return 1.0;
  return RegularizedGammaQ(dof_ / 2.0, x / 2.0);
}

double ChiSquaredDistribution::CriticalValue(double alpha) const {
  SIGSUB_CHECK(alpha > 0.0 && alpha <= 1.0);
  // Bisect on the survival function: Sf is strictly decreasing.
  double lo = 0.0;
  double hi = std::fmax(4.0 * dof_, 16.0);
  while (Sf(hi) > alpha) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (Sf(mid) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-13 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

double ResolveX2Cutoff(double alpha0, double alpha_p, int dof) {
  if (alpha_p >= 0.0) {
    return ChiSquaredDistribution(dof).CriticalValue(alpha_p);
  }
  if (alpha0 >= 0.0) return alpha0;
  return -std::numeric_limits<double>::infinity();
}

}  // namespace stats
}  // namespace sigsub
