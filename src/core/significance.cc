#include "core/significance.h"

#include <vector>

#include "common/str_util.h"
#include "stats/count_statistics.h"

namespace sigsub {
namespace core {

double SubstringPValue(double chi_square, int alphabet_size) {
  return stats::ChiSquarePValue(chi_square, alphabet_size);
}

Result<ScoredSubstring> ScoreSubstring(const seq::Sequence& sequence,
                                       const seq::MultinomialModel& model,
                                       int64_t start, int64_t end) {
  if (sequence.alphabet_size() != model.alphabet_size()) {
    return Status::InvalidArgument(
        StrCat("sequence alphabet size (", sequence.alphabet_size(),
               ") != model alphabet size (", model.alphabet_size(), ")"));
  }
  if (start < 0 || start >= end || end > sequence.size()) {
    return Status::OutOfRange(
        StrCat("substring [", start, ", ", end, ") out of range for length ",
               sequence.size()));
  }
  std::vector<int64_t> counts = sequence.CountsInRange(start, end);
  ScoredSubstring out;
  out.substring.start = start;
  out.substring.end = end;
  out.substring.chi_square = stats::PearsonChiSquare(counts, model.probs());
  out.p_value =
      SubstringPValue(out.substring.chi_square, model.alphabet_size());
  out.g2 = stats::LikelihoodRatioG2(counts, model.probs());
  return out;
}

}  // namespace core
}  // namespace sigsub
