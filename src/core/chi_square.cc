#include "core/chi_square.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"
#include "stats/count_statistics.h"

namespace sigsub {
namespace core {

ChiSquareContext::ChiSquareContext(std::vector<double> probs)
    : probs_(std::move(probs)), inv_probs_(probs_.size()) {
  for (size_t i = 0; i < probs_.size(); ++i) {
    inv_probs_[i] = 1.0 / probs_[i];
  }
}

ChiSquareContext::ChiSquareContext(const seq::MultinomialModel& model)
    : ChiSquareContext(
          std::vector<double>(model.probs().begin(), model.probs().end())) {}

Result<ChiSquareContext> ChiSquareContext::Make(std::vector<double> probs) {
  SIGSUB_ASSIGN_OR_RETURN(seq::MultinomialModel model,
                          seq::MultinomialModel::Make(std::move(probs)));
  return ChiSquareContext(model);
}

double ChiSquareContext::Evaluate(std::span<const int64_t> counts,
                                  int64_t l) const {
  SIGSUB_DCHECK(counts.size() == probs_.size());
  if (l == 0) return 0.0;
  double sum = 0.0;
  for (size_t c = 0; c < counts.size(); ++c) {
    double y = static_cast<double>(counts[c]);
    sum += y * y * inv_probs_[c];
  }
  double dl = static_cast<double>(l);
  return sum / dl - dl;
}

double ChiSquareContext::EvaluateRange(const seq::PrefixCounts& counts,
                                       int64_t start, int64_t end) const {
  SIGSUB_DCHECK(counts.alphabet_size() == alphabet_size());
  int64_t l = end - start;
  if (l == 0) return 0.0;
  double sum = 0.0;
  for (int c = 0; c < alphabet_size(); ++c) {
    double y = static_cast<double>(counts.CountInRange(c, start, end));
    sum += y * y * inv_probs_[c];
  }
  double dl = static_cast<double>(l);
  return sum / dl - dl;
}

void ChiSquareContext::Incremental::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  weighted_sum_ = 0.0;
  length_ = 0;
}

void ChiSquareContext::Incremental::Extend(uint8_t symbol) {
  SIGSUB_DCHECK(symbol < counts_.size());
  weighted_sum_ += static_cast<double>(2 * counts_[symbol] + 1) *
                   context_->inv_probs_[symbol];
  ++counts_[symbol];
  ++length_;
}

Status ValidateSequenceModel(const seq::Sequence& sequence,
                             const seq::MultinomialModel& model) {
  if (sequence.empty()) {
    return Status::InvalidArgument("sequence is empty; it has no substrings");
  }
  if (sequence.alphabet_size() != model.alphabet_size()) {
    return Status::InvalidArgument(
        StrCat("sequence alphabet size (", sequence.alphabet_size(),
               ") != model alphabet size (", model.alphabet_size(), ")"));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace sigsub
