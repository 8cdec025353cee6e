#include "core/naive.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"
#include "core/top_t.h"

namespace sigsub {
namespace core {
MssResult NaiveFindMss(const seq::Sequence& sequence,
                       const ChiSquareContext& context) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  const int64_t n = sequence.size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  ChiSquareContext::Incremental inc(context);
  bool found = false;
  for (int64_t i = 0; i < n; ++i) {
    ++result.stats.start_positions;
    inc.Reset();
    for (int64_t end = i + 1; end <= n; ++end) {
      inc.Extend(sequence[end - 1]);
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

Result<MssResult> NaiveFindMss(const seq::Sequence& sequence,
                               const seq::MultinomialModel& model) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  return NaiveFindMss(sequence, ChiSquareContext(model));
}

TopTResult NaiveFindTopT(const seq::Sequence& sequence,
                         const ChiSquareContext& context, int64_t t) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(t >= 1);
  const int64_t n = sequence.size();
  TopTResult result;
  TopTCollector collector(t);
  ChiSquareContext::Incremental inc(context);
  for (int64_t i = 0; i < n; ++i) {
    ++result.stats.start_positions;
    inc.Reset();
    for (int64_t end = i + 1; end <= n; ++end) {
      inc.Extend(sequence[end - 1]);
      ++result.stats.positions_examined;
      collector.Offer(Substring{i, end, inc.chi_square()});
    }
  }
  result.top = collector.TakeSortedDescending();
  return result;
}

Result<TopTResult> NaiveFindTopT(const seq::Sequence& sequence,
                                 const seq::MultinomialModel& model,
                                 int64_t t) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (t < 1) {
    return Status::InvalidArgument(StrCat("t must be >= 1, got ", t));
  }
  return NaiveFindTopT(sequence, ChiSquareContext(model), t);
}

ThresholdResult NaiveFindAboveThreshold(const seq::Sequence& sequence,
                                        const ChiSquareContext& context,
                                        double alpha0, int64_t max_matches) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(max_matches >= 0);
  const int64_t n = sequence.size();
  ThresholdResult result;
  ChiSquareContext::Incremental inc(context);
  bool found = false;
  for (int64_t i = 0; i < n; ++i) {
    ++result.stats.start_positions;
    inc.Reset();
    for (int64_t end = i + 1; end <= n; ++end) {
      inc.Extend(sequence[end - 1]);
      ++result.stats.positions_examined;
      double x2 = inc.chi_square();
      if (x2 > alpha0) {
        Substring match{i, end, x2};
        ++result.match_count;
        if (static_cast<int64_t>(result.matches.size()) < max_matches) {
          result.matches.push_back(match);
        }
        if (!found || x2 > result.best.chi_square) {
          found = true;
          result.best = match;
        }
      }
    }
  }
  return result;
}

Result<ThresholdResult> NaiveFindAboveThreshold(
    const seq::Sequence& sequence, const seq::MultinomialModel& model,
    double alpha0, int64_t max_matches) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (max_matches < 0) {
    return Status::InvalidArgument(
        StrCat("max_matches must be >= 0, got ", max_matches));
  }
  return NaiveFindAboveThreshold(sequence, ChiSquareContext(model), alpha0,
                                 max_matches);
}

MssResult NaiveFindMssMinLength(const seq::Sequence& sequence,
                                const ChiSquareContext& context,
                                int64_t min_length) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(min_length >= 1);
  const int64_t n = sequence.size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  ChiSquareContext::Incremental inc(context);
  bool found = false;
  for (int64_t i = 0; i + min_length <= n; ++i) {
    ++result.stats.start_positions;
    inc.Reset();
    for (int64_t end = i + 1; end <= n; ++end) {
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

Result<MssResult> NaiveFindMssMinLength(const seq::Sequence& sequence,
                                        const seq::MultinomialModel& model,
                                        int64_t min_length) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (min_length < 1 || min_length > sequence.size()) {
    return Status::InvalidArgument(
        StrCat("min_length must be in [1, ", sequence.size(), "], got ",
               min_length));
  }
  return NaiveFindMssMinLength(sequence, ChiSquareContext(model), min_length);
}

}  // namespace core
}  // namespace sigsub
