#ifndef SIGSUB_TESTS_TESTING_SKIP_REFERENCE_H_
#define SIGSUB_TESTS_TESTING_SKIP_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/chi_square.h"

namespace sigsub {
namespace testing {

/// The all-characters chain-cover skip: solves the cover quadratic of
/// every symbol, takes the smallest root, and verifies the integer
/// candidate against every symbol's quadratic in long double. This is the
/// solver core::SkipSolver::MaxSafeExtension ran before it grouped symbols
/// by probability, kept verbatim as the reference the grouped solver must
/// reproduce bit for bit (tests/core/skip_solver_differential_test.cc,
/// fuzz/skip_solver_fuzz.cc).
class ReferenceSkipSolver {
 public:
  explicit ReferenceSkipSolver(const core::ChiSquareContext& context)
      : context_(&context) {}

  int64_t MaxSafeExtension(std::span<const int64_t> counts, int64_t l,
                           double x2_l, double budget) const {
    std::span<const double> probs = context_->probs();
    SIGSUB_CHECK(counts.size() == probs.size());
    SIGSUB_CHECK(l >= 1);
    if (!(x2_l <= budget)) return 0;

    double min_root = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < probs.size(); ++c) {
      double root = CharacterRoot(counts[c], probs[c], l, x2_l, budget);
      if (root < min_root) min_root = root;
    }
    if (!(min_root > 0.0)) return 0;
    // Guard against pathological overflow of the cast below.
    if (min_root > 9.0e18) min_root = 9.0e18;
    int64_t m = static_cast<int64_t>(std::floor(min_root));
    if (m <= 0) return 0;

    // Verify the integer candidate against every character's quadratic in
    // extended precision; floating-point error in the root can otherwise
    // overshoot by one position.
    for (size_t c = 0; c < probs.size() && m > 0;) {
      if (CoverQuadraticAt(counts[c], probs[c], l, x2_l, budget, m) > 0.0L) {
        --m;
        c = 0;  // Re-verify all characters at the smaller candidate.
        continue;
      }
      ++c;
    }
    return m;
  }

  /// The largest real x satisfying one symbol's cover constraint.
  static double CharacterRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                              double budget) {
    double a = 1.0 - p_c;
    double b = 2.0 * static_cast<double>(y_c) -
               2.0 * static_cast<double>(l) * p_c - p_c * budget;
    double c = (x2_l - budget) * static_cast<double>(l) * p_c;
    if (c > 0.0) return 0.0;  // X²_l already above budget.
    double disc = b * b - 4.0 * a * c;
    double sq = std::sqrt(disc);
    // Positive root of an upward parabola with q(0) = c <= 0, by the
    // cancellation-free branch.
    if (b <= 0.0) return (-b + sq) / (2.0 * a);
    return (-2.0 * c) / (b + sq);
  }

  /// The cover quadratic
  ///   q(x) = (1 − p_c)x² + (2Y_c − 2lp_c − p_c·B)x + (X²_l − B)·l·p_c
  /// evaluated in long double at the integer x.
  static long double CoverQuadraticAt(int64_t y_c, double p_c, int64_t l,
                                      double x2_l, double budget, int64_t x) {
    long double a = 1.0L - static_cast<long double>(p_c);
    long double b = 2.0L * static_cast<long double>(y_c) -
                    2.0L * static_cast<long double>(l) * p_c -
                    static_cast<long double>(p_c) * budget;
    long double c = (static_cast<long double>(x2_l) - budget) *
                    static_cast<long double>(l) * p_c;
    long double lx = static_cast<long double>(x);
    return (a * lx + b) * lx + c;
  }

 private:
  const core::ChiSquareContext* context_;
};

/// The budget B at which symbol c's cover quadratic (above) has its
/// positive root exactly at x = m0: q(m0) = 0 solved for B in long double.
/// Rounded to a double, it puts the root within a few ulps of m0.
inline double BudgetWithRootAt(int64_t y_c, double p_c, int64_t l,
                               double x2_l, long double m0) {
  const long double p = p_c;
  const long double dl = static_cast<long double>(l);
  return static_cast<double>(
      ((1.0L - p) * m0 * m0 +
       (2.0L * static_cast<long double>(y_c) - 2.0L * dl * p) * m0 +
       static_cast<long double>(x2_l) * dl * p) /
      (p * (m0 + dl)));
}

/// The budget B at which symbol c's linear coefficient
/// 2Y_c − 2lp_c − p_c·B is zero: where CharacterRoot switches between its
/// two cancellation-free formulas.
inline double BudgetWithZeroSlope(int64_t y_c, double p_c, int64_t l) {
  return (2.0 * static_cast<double>(y_c) -
          2.0 * static_cast<double>(l) * p_c) /
         p_c;
}

/// `value` moved by `ulps` representable doubles (down when negative).
inline double NudgeUlps(double value, int ulps) {
  for (int u = 0; u < std::abs(ulps); ++u) {
    value = std::nextafter(value, ulps > 0
                                      ? std::numeric_limits<double>::max()
                                      : -std::numeric_limits<double>::max());
  }
  return value;
}

/// Number of ways to spread `extra` added symbols over k symbols,
/// C(extra + k − 1, k − 1), saturated at `cap`.
inline int64_t CompositionCount(int k, int64_t extra, int64_t cap) {
  int64_t count = 1;
  for (int64_t i = 1; i <= extra; ++i) {
    count = count * (k - 1 + i) / i;  // Exact: a running binomial.
    if (count > cap) return cap;
  }
  return count;
}

/// The brute-force side of Theorem 1: the largest X² over every way of
/// extending the count vector `base` (length `base_len`) by exactly
/// `extra` >= 1 symbols, enumerated over all compositions of `extra`
/// (tests/core/chain_cover_test.cc, fuzz/skip_solver_fuzz.cc).
inline double MaxExtensionChiSquare(const core::ChiSquareContext& context,
                                    const std::vector<int64_t>& base,
                                    int64_t base_len, int64_t extra) {
  const int k = context.alphabet_size();
  std::vector<int64_t> counts(base);
  double best = -std::numeric_limits<double>::infinity();
  std::function<void(int, int64_t)> spread = [&](int index,
                                                 int64_t remaining) {
    if (index == k - 1) {
      counts[index] += remaining;
      best = std::max(best, context.Evaluate(counts, base_len + extra));
      counts[index] -= remaining;
      return;
    }
    for (int64_t y = 0; y <= remaining; ++y) {
      counts[index] += y;
      spread(index + 1, remaining - y);
      counts[index] -= y;
    }
  };
  spread(0, extra);
  return best;
}

}  // namespace testing
}  // namespace sigsub

#endif  // SIGSUB_TESTS_TESTING_SKIP_REFERENCE_H_
