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
