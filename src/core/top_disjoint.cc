#include "core/top_disjoint.h"

#include <cmath>
#include <queue>

#include "common/check.h"
#include "common/str_util.h"
#include "core/mss.h"

namespace sigsub {
namespace core {
namespace {

struct SegmentBest {
  int64_t seg_start;
  int64_t seg_end;
  Substring best;
};

struct ByChiSquare {
  bool operator()(const SegmentBest& a, const SegmentBest& b) const {
    return a.best.chi_square < b.best.chi_square;
  }
};

}  // namespace

std::vector<Substring> FindTopDisjoint(const seq::PrefixCounts& counts,
                                       const ChiSquareContext& context,
                                       TopDisjointOptions options) {
  SIGSUB_CHECK(options.t >= 1);
  SIGSUB_CHECK(options.min_length >= 1);
  const int64_t n = counts.sequence_size();
  std::priority_queue<SegmentBest, std::vector<SegmentBest>, ByChiSquare>
      heap;

  auto push_segment = [&](int64_t lo, int64_t hi) {
    if (hi - lo < options.min_length) return;
    MssResult mss =
        FindMssInRange(counts, context, lo, hi, options.min_length, hi - lo);
    if (mss.best.length() < options.min_length) return;
    if (!(mss.best.chi_square > options.min_chi_square)) return;
    heap.push(SegmentBest{lo, hi, mss.best});
  };

  push_segment(0, n);
  std::vector<Substring> out;
  while (!heap.empty() && static_cast<int64_t>(out.size()) < options.t) {
    SegmentBest top = heap.top();
    heap.pop();
    out.push_back(top.best);
    push_segment(top.seg_start, top.best.start);
    push_segment(top.best.end, top.seg_end);
  }
  return out;
}

Result<std::vector<Substring>> FindTopDisjoint(
    const seq::Sequence& sequence, const seq::MultinomialModel& model,
    TopDisjointOptions options) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (options.t < 1) {
    return Status::InvalidArgument(StrCat("t must be >= 1, got ", options.t));
  }
  if (options.min_length < 1) {
    return Status::InvalidArgument(
        StrCat("min_length must be >= 1, got ", options.min_length));
  }
  if (std::isnan(options.min_chi_square)) {
    // Every comparison against NaN is false, so the scan would keep
    // nothing.
    return Status::InvalidArgument("min_chi_square must not be NaN");
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindTopDisjoint(counts, context, options);
}

}  // namespace core
}  // namespace sigsub
