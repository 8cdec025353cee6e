#ifndef SIGSUB_CORE_SIGNIFICANCE_H_
#define SIGSUB_CORE_SIGNIFICANCE_H_

#include <cstdint>

#include "common/result.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// A substring together with its significance annotations: the asymptotic
/// p-value 1 − F_{χ²(k−1)}(X²) (paper Section 1) and the likelihood-ratio
/// statistic G² (paper Eq. 3) for cross-checking.
struct ScoredSubstring {
  Substring substring;
  double p_value = 1.0;
  double g2 = 0.0;
};

/// Asymptotic p-value of an X² value for alphabet size k (>= 2).
double SubstringPValue(double chi_square, int alphabet_size);

/// Scores the substring [start, end) of `sequence` under `model`:
/// X², p-value and G². Validates bounds and alphabet compatibility.
Result<ScoredSubstring> ScoreSubstring(const seq::Sequence& sequence,
                                       const seq::MultinomialModel& model,
                                       int64_t start, int64_t end);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_SIGNIFICANCE_H_
