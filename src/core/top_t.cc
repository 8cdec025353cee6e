#include "core/top_t.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/str_util.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {
namespace {

struct MinByChiSquare {
  bool operator()(const Substring& a, const Substring& b) const {
    return a.chi_square > b.chi_square;
  }
};

}  // namespace

TopTCollector::TopTCollector(int64_t t) : t_(t) {
  SIGSUB_CHECK(t >= 1);
  heap_.reserve(static_cast<size_t>(std::min(t, kMaxTopT)));
}

double TopTCollector::budget() const {
  if (static_cast<int64_t>(heap_.size()) < t_) {
    return -std::numeric_limits<double>::infinity();
  }
  return heap_.front().chi_square;
}

bool TopTCollector::Offer(const Substring& candidate) {
  if (static_cast<int64_t>(heap_.size()) < t_) {
    // Below capacity every candidate is (so far) among the best t. In
    // particular X² = 0 substrings are kept, so a perfectly balanced
    // sequence still yields t results instead of none.
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), MinByChiSquare());
    return true;
  }
  if (!(candidate.chi_square > heap_.front().chi_square)) return false;
  std::pop_heap(heap_.begin(), heap_.end(), MinByChiSquare());
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), MinByChiSquare());
  return true;
}

std::vector<Substring> TopTCollector::TakeSortedDescending() {
  std::vector<Substring> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [](const Substring& a, const Substring& b) {
    return a.chi_square > b.chi_square;
  });
  return out;
}

TopTResult FindTopT(const seq::PrefixCounts& counts,
                    const ChiSquareContext& context, int64_t t) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(t >= 1);
  const int64_t n = counts.sequence_size();
  TopTResult result;
  TopTCollector collector(t);
  // Skip against the t-th best value (paper's X²_max_t), read after the
  // offer so insertions tighten the budget immediately.
  result.stats = ChainCoverScan(
      counts, context, 0, n, /*min_length=*/1, n, /*shard=*/0,
      /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
        collector.Offer(Substring{i, end, x2});
        return collector.budget();
      });
  result.top = collector.TakeSortedDescending();
  return result;
}

Result<TopTResult> FindTopT(const seq::Sequence& sequence,
                            const seq::MultinomialModel& model, int64_t t) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (t < 1 || t > kMaxTopT) {
    return Status::InvalidArgument(
        StrCat("t must be in [1, ", kMaxTopT, "], got ", t));
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindTopT(counts, context, t);
}

}  // namespace core
}  // namespace sigsub
