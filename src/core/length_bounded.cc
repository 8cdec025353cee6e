#include "core/length_bounded.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"
#include "core/mss.h"

namespace sigsub {
namespace core {
namespace {

Status ValidateInput(const seq::Sequence& sequence,
                     const seq::MultinomialModel& model, int64_t min_length,
                     int64_t max_length) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (min_length < 1 || min_length > sequence.size()) {
    return Status::InvalidArgument(
        StrCat("min_length must be in [1, ", sequence.size(), "], got ",
               min_length));
  }
  if (max_length < min_length) {
    return Status::InvalidArgument(
        StrCat("max_length (", max_length, ") < min_length (", min_length,
               ")"));
  }
  return Status::OK();
}

}  // namespace

MssResult FindMssLengthBounded(const seq::PrefixCounts& counts,
                               const ChiSquareContext& context,
                               int64_t min_length, int64_t max_length) {
  SIGSUB_CHECK(max_length >= min_length);
  return FindMssInRange(counts, context, 0, counts.sequence_size(),
                        min_length, max_length);
}

Result<MssResult> FindMssLengthBounded(const seq::Sequence& sequence,
                                       const seq::MultinomialModel& model,
                                       int64_t min_length,
                                       int64_t max_length) {
  SIGSUB_RETURN_IF_ERROR(
      ValidateInput(sequence, model, min_length, max_length));
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssLengthBounded(counts, context, min_length, max_length);
}

Result<MssResult> NaiveFindMssLengthBounded(
    const seq::Sequence& sequence, const seq::MultinomialModel& model,
    int64_t min_length, int64_t max_length) {
  SIGSUB_RETURN_IF_ERROR(
      ValidateInput(sequence, model, min_length, max_length));
  ChiSquareContext context(model);
  ChiSquareContext::Incremental inc(context);
  const int64_t n = sequence.size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  bool found = false;
  for (int64_t i = 0; i + min_length <= n; ++i) {
    ++result.stats.start_positions;
    inc.Reset();
    int64_t row_end = std::min(n, i + max_length);
    for (int64_t end = i + 1; end <= row_end; ++end) {
      inc.Extend(sequence[end - 1]);
      if (end - i < min_length) continue;
      ++result.stats.positions_examined;
      double x2 = inc.chi_square();
      if (x2 > result.best.chi_square || !found) {
        found = true;
        result.best = Substring{i, end, x2};
      }
    }
  }
  return result;
}

}  // namespace core
}  // namespace sigsub
