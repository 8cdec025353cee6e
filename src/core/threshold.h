#ifndef SIGSUB_CORE_THRESHOLD_H_
#define SIGSUB_CORE_THRESHOLD_H_

#include <cstdint>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// Options for the threshold scan. The number of qualifying substrings can
/// be Θ(n²); `max_matches` caps how many are materialized (the exact count
/// and the best match are always reported).
struct ThresholdOptions {
  int64_t max_matches = INT64_MAX;
};

/// Problem 3 (significance above a threshold): every substring with
/// X² > alpha0. Paper Algorithm 3; the skip budget is the constant alpha0,
/// giving O(k·n·sqrt(n/alpha0)) once alpha0 exceeds typical substring
/// scores, degrading gracefully to O(k·n²) as alpha0 → 0. A NaN, infinite
/// or negative alpha0 is an InvalidArgument.
Result<ThresholdResult> FindAboveThreshold(const seq::Sequence& sequence,
                                           const seq::MultinomialModel& model,
                                           double alpha0,
                                           ThresholdOptions options = {});

/// Kernel variant (see FindMss).
ThresholdResult FindAboveThreshold(const seq::PrefixCounts& counts,
                                   const ChiSquareContext& context,
                                   double alpha0, ThresholdOptions options = {});

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_THRESHOLD_H_
