#include "core/mss.h"

#include "common/check.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {

MssResult FindMssInRange(const seq::PrefixCounts& counts,
                         const ChiSquareContext& context, int64_t range_start,
                         int64_t range_end, int64_t min_length,
                         int64_t max_length) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(range_start >= 0 && range_end <= counts.sequence_size());
  SIGSUB_CHECK(min_length >= 1);

  MssResult result;
  result.best = Substring{range_start, range_start, 0.0};
  bool found = false;
  result.stats = ChainCoverScan(
      counts, context, range_start, range_end, min_length, max_length,
      /*shard=*/0, /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
        if (x2 > result.best.chi_square || !found) {
          found = true;
          result.best = Substring{i, end, x2};
        }
        return result.best.chi_square;
      });
  return result;
}

MssResult FindMss(const seq::PrefixCounts& counts,
                  const ChiSquareContext& context) {
  const int64_t n = counts.sequence_size();
  return FindMssInRange(counts, context, 0, n, /*min_length=*/1, n);
}

Result<MssResult> FindMss(const seq::Sequence& sequence,
                          const seq::MultinomialModel& model) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMss(counts, context);
}

}  // namespace core
}  // namespace sigsub
