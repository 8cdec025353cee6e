#include "core/chain_cover.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace sigsub {
namespace core {
namespace {

/// Evaluates the per-character cover quadratic
///   q(x) = (1 − p_c)x² + (2Y_c − 2lp_c − p_c·B)x + (X²_l − B)·l·p_c
/// in long double, used to verify integer skip candidates exactly enough
/// that floating-point error can only cost skip length, never correctness.
long double CoverQuadraticAt(int64_t y_c, double p_c, int64_t l, double x2_l,
                             double budget, int64_t x) {
  long double a = 1.0L - static_cast<long double>(p_c);
  long double b = 2.0L * static_cast<long double>(y_c) -
                  2.0L * static_cast<long double>(l) * p_c -
                  static_cast<long double>(p_c) * budget;
  long double c = (static_cast<long double>(x2_l) - budget) *
                  static_cast<long double>(l) * p_c;
  long double lx = static_cast<long double>(x);
  return (a * lx + b) * lx + c;
}

}  // namespace

double CoverChiSquare(double x2_l, int64_t l, int64_t y_c, double p_c,
                      double x) {
  SIGSUB_DCHECK(l >= 1);
  SIGSUB_DCHECK(x >= 0.0);
  double dl = static_cast<double>(l);
  double y = static_cast<double>(y_c);
  return dl * (x2_l + dl) / (dl + x) + (2.0 * x * y + x * x) / ((dl + x) * p_c) -
         (dl + x);
}

namespace {

/// The positive root of symbol c's cover quadratic (see chain_cover.h):
/// the largest real x with the cover constraint satisfied.
double CoverRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                 double budget) {
  double a = 1.0 - p_c;
  double b = 2.0 * static_cast<double>(y_c) -
             2.0 * static_cast<double>(l) * p_c - p_c * budget;
  double c = (x2_l - budget) * static_cast<double>(l) * p_c;
  if (c > 0.0) return 0.0;  // X²_l already above budget: no safe extension.
  double disc = b * b - 4.0 * a * c;
  double sq = std::sqrt(disc);
  // Positive root of an upward parabola with q(0) = c <= 0. Use the
  // cancellation-free branch.
  if (b <= 0.0) return (-b + sq) / (2.0 * a);
  return (-2.0 * c) / (b + sq);
}

}  // namespace

SkipSolver::SkipSolver(const ChiSquareContext& context) {
  std::span<const double> probs = context.probs();
  const int k = context.alphabet_size();
  for (int c = 0; c < k; ++c) {
    if (std::find(probs.begin(), probs.begin() + c, probs[c]) !=
        probs.begin() + c) {
      continue;  // Symbol c joined the class of an earlier symbol.
    }
    for (int d = c; d < k; ++d) {
      if (probs[d] == probs[c]) class_symbols_.push_back(d);
    }
    class_probs_.push_back(probs[c]);
    class_ends_.push_back(static_cast<int>(class_symbols_.size()));
  }
}

double SkipSolver::CharacterRoot(int64_t y_c, double p_c, int64_t l,
                                 double x2_l, double budget) const {
  return CoverRoot(y_c, p_c, l, x2_l, budget);
}

/// Shared core of the MaxSafeExtension overloads. `count_at(c)` yields
/// Y_c however the caller stores it (materialized span, two prefix
/// blocks, or a 2-D rectangle gather); the skip logic is identical, so
/// all overloads return identical results for identical counts. Only the
/// largest count of each probability class binds (see chain_cover.h).
template <typename CountAt>
int64_t SkipSolver::MaxSafeExtensionImpl(const CountAt& count_at, int64_t l,
                                         double x2_l, double budget) const {
  SIGSUB_DCHECK(l >= 1);
  // Written so that a NaN budget or X² also skips nothing.
  if (!(x2_l <= budget)) return 0;

  const size_t num_classes = class_probs_.size();
  const double* probs = class_probs_.data();
  const int* symbols = class_symbols_.data();
  const int* ends = class_ends_.data();
  // The largest count of each class, kept for the check below (k <= 255,
  // as MultinomialModel enforces). The first loop writes entries
  // [0, num_classes) before the check reads them; zero-filling all 256
  // instead would cost more than the k=4 skip itself.
  int64_t class_max[256];
  double min_root = std::numeric_limits<double>::infinity();
  for (size_t j = 0, i = 0; j < num_classes; ++j) {
    int64_t y = count_at(symbols[i]);
    for (++i; i < static_cast<size_t>(ends[j]); ++i) {
      y = std::max(y, count_at(symbols[i]));
    }
    class_max[j] = y;
    double root = CoverRoot(y, probs[j], l, x2_l, budget);
    if (root < min_root) min_root = root;
  }
  if (!(min_root > 0.0)) return 0;
  // Guard against pathological overflow of the cast below.
  if (min_root > 9.0e18) min_root = 9.0e18;
  int64_t m = static_cast<int64_t>(std::floor(min_root));
  if (m <= 0) return 0;

  // Verify the integer candidate against every class's binding quadratic
  // in extended precision; floating-point error in the root can otherwise
  // overshoot by one position. Each decrement is at most a rounding step,
  // so this loop runs O(1) times in practice.
  for (size_t j = 0; j < num_classes && m > 0;) {
    if (CoverQuadraticAt(class_max[j], probs[j], l, x2_l, budget, m) >
        0.0L) {
      --m;
      j = 0;  // Re-verify all classes at the smaller candidate.
      continue;
    }
    ++j;
  }
  return m;
}

int64_t SkipSolver::MaxSafeExtension(std::span<const int64_t> counts,
                                     int64_t l, double x2_l,
                                     double budget) const {
  SIGSUB_DCHECK(counts.size() == class_symbols_.size());
  return MaxSafeExtensionImpl([&](size_t c) { return counts[c]; }, l, x2_l,
                              budget);
}

int64_t SkipSolver::MaxSafeExtension(const int64_t* start_block,
                                     const int64_t* end_block, int64_t l,
                                     double x2_l, double budget) const {
  return MaxSafeExtensionImpl(
      [&](size_t c) { return end_block[c] - start_block[c]; }, l, x2_l,
      budget);
}

int64_t PaperSingleCharacterSkip(const ChiSquareContext& context,
                                 std::span<const int64_t> counts, int64_t l,
                                 double x2_l, double budget) {
  std::span<const double> probs = context.probs();
  SIGSUB_DCHECK(counts.size() == probs.size());
  // Paper line 9: t = argmax (2Y_m + x)/p_m. With x unknown at selection
  // time we follow the common reading x ~ 0, i.e. argmax Y_m/p_m (the
  // Lemma 2 character).
  size_t t = 0;
  double best_score = -1.0;
  for (size_t c = 0; c < probs.size(); ++c) {
    double score = static_cast<double>(counts[c]) / probs[c];
    if (score > best_score) {
      best_score = score;
      t = c;
    }
  }
  double root = CoverRoot(counts[t], probs[t], l, x2_l, budget);
  // Paper line 13-14: x = ceil(root), increment l by x => x − 1 unchecked
  // positions are skipped.
  int64_t x = static_cast<int64_t>(std::ceil(root));
  return x > 0 ? x - 1 : 0;
}

}  // namespace core
}  // namespace sigsub
