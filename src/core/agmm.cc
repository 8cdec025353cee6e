#include "core/agmm.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "core/x2_kernel.h"

namespace sigsub {
namespace core {

MssResult FindMssAgmm(const seq::Sequence& sequence,
                      const seq::PrefixCounts& counts,
                      const ChiSquareContext& context) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(sequence.size() == counts.sequence_size());
  const int64_t n = sequence.size();
  const int k = context.alphabet_size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  X2Kernel kernel(context);
  bool found = false;

  auto consider = [&](int64_t start, int64_t end) {
    if (start >= end) return;
    double x2 = kernel.EvaluateRange(counts, start, end);
    ++result.stats.positions_examined;
    if (x2 > result.best.chi_square || !found) {
      found = true;
      result.best = Substring{start, end, x2};
    }
  };

  // Per-symbol walk state: global extrema of W_c(j) = count_c(j) − j·p_c
  // over j = 0..n, plus the running prefix extrema used for the
  // per-endpoint excursion candidates below. All k walks advance in one
  // position-major pass so the flat counts layout is read contiguously
  // (a walk over one symbol at a time would stride by k).
  struct Walk {
    int64_t argmax = 0, argmin = 0;
    double wmax = 0.0, wmin = 0.0;
    int64_t best_up_start = 0, best_up_end = 0;
    int64_t best_down_start = 0, best_down_end = 0;
    double best_up = -1.0, best_down = -1.0;
    int64_t prefix_min_at = 0, prefix_max_at = 0;
    double prefix_min = 0.0, prefix_max = 0.0;
  };
  std::vector<Walk> walks(static_cast<size_t>(k));

  for (int64_t j = 1; j <= n; ++j) {
    for (int c = 0; c < k; ++c) {
      Walk& walk = walks[static_cast<size_t>(c)];
      double w = static_cast<double>(counts.PrefixCount(c, j)) -
                 static_cast<double>(j) * context.probs()[c];
      if (w > walk.wmax) {
        walk.wmax = w;
        walk.argmax = j;
      }
      if (w < walk.wmin) {
        walk.wmin = w;
        walk.argmin = j;
      }
      // Steepest rise (c over-represented) and fall (under-represented)
      // ending at j, measured against the prefix extrema. Normalizing by
      // sqrt(length) approximates the X² objective for the excursion.
      double up = w - walk.prefix_min;
      if (up > 0.0) {
        double score =
            up * up / static_cast<double>(j - walk.prefix_min_at);
        if (score > walk.best_up) {
          walk.best_up = score;
          walk.best_up_start = walk.prefix_min_at;
          walk.best_up_end = j;
        }
      }
      double down = walk.prefix_max - w;
      if (down > 0.0) {
        double score =
            down * down / static_cast<double>(j - walk.prefix_max_at);
        if (score > walk.best_down) {
          walk.best_down = score;
          walk.best_down_start = walk.prefix_max_at;
          walk.best_down_end = j;
        }
      }
      if (w < walk.prefix_min) {
        walk.prefix_min = w;
        walk.prefix_min_at = j;
      }
      if (w > walk.prefix_max) {
        walk.prefix_max = w;
        walk.prefix_max_at = j;
      }
    }
  }
  result.stats.positions_examined += k * n;  // One walk evaluation per index.

  for (int c = 0; c < k; ++c) {
    const Walk& walk = walks[static_cast<size_t>(c)];
    int64_t lo = std::min(walk.argmax, walk.argmin);
    int64_t hi = std::max(walk.argmax, walk.argmin);
    consider(lo, hi);            // The largest excursion of W_c.
    consider(0, walk.argmax);    // Prefix up to the global max.
    consider(0, walk.argmin);    // Prefix down to the global min.
    consider(walk.argmax, n);    // Suffix after the global max.
    consider(walk.argmin, n);    // Suffix after the global min.
    consider(walk.best_up_start, walk.best_up_end);  // Steepest norm. rise.
    consider(walk.best_down_start,
             walk.best_down_end);                    // Steepest norm. fall.
  }
  result.stats.start_positions = k;
  return result;
}

Result<MssResult> FindMssAgmm(const seq::Sequence& sequence,
                              const seq::MultinomialModel& model) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssAgmm(sequence, counts, context);
}

}  // namespace core
}  // namespace sigsub
