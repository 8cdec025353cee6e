#ifndef SIGSUB_TESTS_TESTING_DISJOINT_REFERENCE_H_
#define SIGSUB_TESTS_TESTING_DISJOINT_REFERENCE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/check.h"
#include "core/chi_square.h"
#include "core/mss.h"
#include "core/scan_types.h"
#include "core/top_disjoint.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace testing {

/// Greedy non-overlapping top-t as core::FindTopDisjoint ran it before it
/// answered right children from the parent's scan: every leftover segment,
/// right ones included, gets its own FindMssInRange. Kept verbatim as the
/// reference the production kernel must reproduce bit for bit, ties and
/// their order included (tests/core/top_disjoint_test.cc). `mss_in_range`
/// answers each segment; the chain-cover differential suite passes the
/// serial reference loop's (tests/testing/chain_cover_reference.h).
inline std::vector<core::Substring> ReferenceFindTopDisjoint(
    const seq::PrefixCounts& counts, const core::ChiSquareContext& context,
    core::TopDisjointOptions options,
    core::MssResult (*mss_in_range)(const seq::PrefixCounts&,
                                    const core::ChiSquareContext&, int64_t,
                                    int64_t, int64_t,
                                    int64_t) = &core::FindMssInRange) {
  struct SegmentBest {
    int64_t seg_start;
    int64_t seg_end;
    core::Substring best;
  };
  struct ByChiSquare {
    bool operator()(const SegmentBest& a, const SegmentBest& b) const {
      return a.best.chi_square < b.best.chi_square;
    }
  };

  SIGSUB_CHECK(options.t >= 1);
  SIGSUB_CHECK(options.min_length >= 1);
  const int64_t n = counts.sequence_size();
  std::priority_queue<SegmentBest, std::vector<SegmentBest>, ByChiSquare>
      heap;

  auto push_segment = [&](int64_t lo, int64_t hi) {
    if (hi - lo < options.min_length) return;
    core::MssResult mss =
        mss_in_range(counts, context, lo, hi, options.min_length, hi - lo);
    if (mss.best.length() < options.min_length) return;
    if (!(mss.best.chi_square > options.min_chi_square)) return;
    heap.push(SegmentBest{lo, hi, mss.best});
  };

  push_segment(0, n);
  std::vector<core::Substring> out;
  while (!heap.empty() && static_cast<int64_t>(out.size()) < options.t) {
    SegmentBest top = heap.top();
    heap.pop();
    out.push_back(top.best);
    push_segment(top.seg_start, top.best.start);
    push_segment(top.best.end, top.seg_end);
  }
  return out;
}

}  // namespace testing
}  // namespace sigsub

#endif  // SIGSUB_TESTS_TESTING_DISJOINT_REFERENCE_H_
