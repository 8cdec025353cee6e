#include "core/chain_cover.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sigsub {
namespace core {

double CoverChiSquare(double x2_l, int64_t l, int64_t y_c, double p_c,
                      double x) {
  SIGSUB_DCHECK(l >= 1);
  SIGSUB_DCHECK(x >= 0.0);
  double dl = static_cast<double>(l);
  double y = static_cast<double>(y_c);
  return dl * (x2_l + dl) / (dl + x) + (2.0 * x * y + x * x) / ((dl + x) * p_c) -
         (dl + x);
}

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

int64_t SkipSolver::MaxSafeExtension(std::span<const int64_t> counts,
                                     int64_t l, double x2_l,
                                     double budget) const {
  SIGSUB_DCHECK(counts.size() == class_symbols_.size());
  return MaxSafeExtensionImpl([&](size_t c) { return counts[c]; }, l, x2_l,
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
  double root = internal::CoverRoot(counts[t], probs[t], l, x2_l, budget);
  // Paper line 13-14: x = ceil(root), increment l by x => x − 1 unchecked
  // positions are skipped.
  int64_t x = static_cast<int64_t>(std::ceil(root));
  return x > 0 ? x - 1 : 0;
}

}  // namespace core
}  // namespace sigsub
