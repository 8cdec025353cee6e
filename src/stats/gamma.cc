#include "stats/gamma.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace sigsub {
namespace stats {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

// Power-series representation of P(a, x); converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Modified Lentz continued fraction for Q(a, x); converges for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

}  // namespace

double LogGamma(double x) {
  SIGSUB_DCHECK(x > 0.0);
  // std::lgamma writes the process-global `signgam` on glibc, which is a
  // data race whenever two threads evaluate a p-value or a quantile at
  // once (the engine's pool workers, or StreamManager::CreateStream
  // calibrating thresholds on concurrent callers). The reentrant variant
  // returns the sign through a local instead.
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  // Non-glibc fallback without the _r variant; signgam races are
  // tolerated there because we never read it.
  // sigsub-lint: allow(unsafe-call): signgam is written but never read here
  return std::lgamma(x);
#endif
}

double RegularizedGammaP(double a, double x) {
  SIGSUB_DCHECK(a > 0.0);
  SIGSUB_DCHECK(x >= 0.0);
  if (x <= 0.0) return 0.0;
  if (std::isinf(x)) return 1.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  SIGSUB_DCHECK(a > 0.0);
  SIGSUB_DCHECK(x >= 0.0);
  if (x <= 0.0) return 1.0;
  if (std::isinf(x)) return 0.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

}  // namespace stats
}  // namespace sigsub
