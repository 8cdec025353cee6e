#ifndef SIGSUB_STATS_GAMMA_H_
#define SIGSUB_STATS_GAMMA_H_

namespace sigsub {
namespace stats {

/// Natural log of the gamma function, ln Γ(x), for x > 0.
double LogGamma(double x);

/// Regularized lower incomplete gamma function
///   P(a, x) = γ(a, x) / Γ(a),  a > 0, x >= 0.
/// P is the CDF of the Gamma(shape=a, scale=1) distribution. Computed with
/// the power series for x < a + 1 and the Lentz continued fraction
/// otherwise; absolute accuracy ~1e-14 over the tested domain.
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x),
/// computed directly (not via subtraction) so small tail values keep full
/// relative precision.
double RegularizedGammaQ(double a, double x);

}  // namespace stats
}  // namespace sigsub

#endif  // SIGSUB_STATS_GAMMA_H_
