#ifndef SIGSUB_CORE_TOP_DISJOINT_H_
#define SIGSUB_CORE_TOP_DISJOINT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// Greedy non-overlapping top-t (library extension, not in the paper).
///
/// The raw top-t of Problem 2 is dominated by overlapping shifts of the
/// single best patch, while the paper's application tables (3 and 5)
/// present *disjoint* significant periods. This utility produces them:
/// repeatedly take the MSS of the remaining region, then split the region
/// around it and recurse, until `t` substrings are found or nothing with
/// length >= min_length and X² > min_chi_square remains. Results come back
/// in descending X² order; consecutive results never overlap. The
/// (sequence, model) form rejects a NaN min_chi_square.
///
/// Right-child invariant: the MSS of a segment [lo, hi) is the chain-cover
/// scan's running best over rows hi − min_length down to lo, every row
/// ending at hi. When the pick [s, e) splits it, the right child [e, hi)
/// would scan exactly the parent's rows >= e, in the same order, with the
/// same row ends, skips and visitor state. So its MSS, tie-break
/// included, is the parent's running best right after row e. Each scan
/// keeps the rows where its running best changed, and a right child is
/// answered from that list without a scan; it inherits the list's rows
/// >= e, so its own right child is free too. Only left children are
/// scanned, and the final pick's children not at all. A list holds at
/// most one entry per row of its segment (a right child gets a fitted
/// copy), and the segments in the heap are disjoint, so all lists
/// together hold at most n entries (2n counting vector growth).
struct TopDisjointOptions {
  int64_t t = 5;
  int64_t min_length = 1;
  double min_chi_square = 0.0;
};

Result<std::vector<Substring>> FindTopDisjoint(
    const seq::Sequence& sequence, const seq::MultinomialModel& model,
    TopDisjointOptions options);

/// Kernel variant.
std::vector<Substring> FindTopDisjoint(const seq::PrefixCounts& counts,
                                       const ChiSquareContext& context,
                                       TopDisjointOptions options);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_TOP_DISJOINT_H_
