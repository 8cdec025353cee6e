#include "core/top_disjoint.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "core/chain_cover.h"

namespace sigsub {
namespace core {
namespace {

/// A segment scan's running best just after row `row`: the MSS of
/// [row, seg_end). Rows are scanned from the right end down.
struct RowBest {
  int64_t row;
  Substring best;
};

struct SegmentBest {
  int64_t seg_start;
  int64_t seg_end;
  Substring best;
  /// The rows at which the running best changed, in scan order (rows
  /// descending), each with the best after that row. The last entry's
  /// best is `best`. Holds at least one entry.
  std::vector<RowBest> trail;
};

struct ByChiSquare {
  bool operator()(const SegmentBest& a, const SegmentBest& b) const {
    return a.best.chi_square < b.best.chi_square;
  }
};

/// The scan FindMssInRange(counts, context, lo, hi, min_length, hi − lo)
/// runs, recording its trail. Empty when [lo, hi) is shorter than
/// min_length.
std::vector<RowBest> ScanSegment(const seq::PrefixCounts& counts,
                                 const ChiSquareContext& context, int64_t lo,
                                 int64_t hi, int64_t min_length) {
  std::vector<RowBest> trail;
  if (hi - lo < min_length) return trail;
  ChainCoverScan(counts, context, lo, hi, min_length, hi - lo, /*shard=*/0,
                 /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
                   if (trail.empty() || x2 > trail.back().best.chi_square) {
                     if (trail.empty() || trail.back().row != i) {
                       trail.push_back(RowBest{i, {}});
                     }
                     trail.back().best = Substring{i, end, x2};
                   }
                   return trail.back().best.chi_square;
                 });
  return trail;
}

}  // namespace

std::vector<Substring> FindTopDisjoint(const seq::PrefixCounts& counts,
                                       const ChiSquareContext& context,
                                       TopDisjointOptions options) {
  SIGSUB_CHECK(context.alphabet_size() == counts.alphabet_size());
  SIGSUB_CHECK(options.t >= 1);
  SIGSUB_CHECK(options.min_length >= 1);
  const int64_t n = counts.sequence_size();
  // A binary heap kept with push_heap/pop_heap, which is exactly what
  // std::priority_queue runs, so equal-X² segments pop in the same order;
  // the explicit vector lets a popped segment's trail move out.
  std::vector<SegmentBest> heap;
  const ByChiSquare by_chi_square;

  auto push_segment = [&](int64_t lo, int64_t hi,
                          std::vector<RowBest> trail) {
    if (trail.empty()) return;
    const Substring best = trail.back().best;
    if (!(best.chi_square > options.min_chi_square)) return;
    heap.push_back(SegmentBest{lo, hi, best, std::move(trail)});
    std::push_heap(heap.begin(), heap.end(), by_chi_square);
  };

  push_segment(0, n, ScanSegment(counts, context, 0, n, options.min_length));
  std::vector<Substring> out;
  while (!heap.empty() && static_cast<int64_t>(out.size()) < options.t) {
    std::pop_heap(heap.begin(), heap.end(), by_chi_square);
    SegmentBest top = std::move(heap.back());
    heap.pop_back();
    out.push_back(top.best);
    if (static_cast<int64_t>(out.size()) == options.t) break;
    push_segment(top.seg_start, top.best.start,
                 ScanSegment(counts, context, top.seg_start, top.best.start,
                             options.min_length));
    // The right child's scan would be the rows >= best.end of this
    // segment's scan, in the same order from the same state (see the
    // invariant in top_disjoint.h), so its trail is that prefix of ours,
    // copied to a fitted buffer so no trail outlives its rows.
    const auto rows_right = std::partition_point(
        top.trail.begin(), top.trail.end(),
        [&](const RowBest& r) { return r.row >= top.best.end; });
    push_segment(top.best.end, top.seg_end,
                 std::vector<RowBest>(top.trail.begin(), rows_right));
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
