#include "core/threshold.h"

#include <cmath>

#include "common/check.h"
#include "common/str_util.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {

ThresholdResult FindAboveThreshold(const seq::PrefixCounts& counts,
                                   const ChiSquareContext& context,
                                   double alpha0, ThresholdOptions options) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(options.max_matches >= 0);
  const int64_t n = counts.sequence_size();
  ThresholdResult result;
  // The budget stays fixed at alpha0 (paper Algorithm 3). When x2 > alpha0
  // the solver returns 0 and the scan advances by one — the paper's
  // max(..., 1).
  result.stats = ChainCoverScan(
      counts, context, 0, n, /*min_length=*/1, n, /*shard=*/0,
      /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
        if (x2 > alpha0) {
          Substring match{i, end, x2};
          ++result.match_count;
          if (static_cast<int64_t>(result.matches.size()) <
              options.max_matches) {
            result.matches.push_back(match);
          }
          if (result.match_count == 1 || x2 > result.best.chi_square) {
            result.best = match;
          }
        }
        return alpha0;
      });
  return result;
}

Result<ThresholdResult> FindAboveThreshold(const seq::Sequence& sequence,
                                           const seq::MultinomialModel& model,
                                           double alpha0,
                                           ThresholdOptions options) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (options.max_matches < 0) {
    return Status::InvalidArgument(
        StrCat("max_matches must be >= 0, got ", options.max_matches));
  }
  // NaN fails every comparison, so `alpha0 < 0.0` alone would let it
  // through and the scan would match nothing; +inf matches nothing too.
  if (!(alpha0 >= 0.0) || std::isinf(alpha0)) {
    return Status::InvalidArgument(StrCat(
        "alpha0 must be finite and >= 0 (X² is non-negative), got ", alpha0));
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindAboveThreshold(counts, context, alpha0, options);
}

}  // namespace core
}  // namespace sigsub
