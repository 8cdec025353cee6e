#ifndef SIGSUB_CORE_MSS_H_
#define SIGSUB_CORE_MSS_H_

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// Problem 1 (Most Significant Substring): the substring of `sequence`
/// maximizing the Pearson X² statistic under `model`. This is the paper's
/// Algorithm 1, running in O(k·n^{3/2}) time with high probability via
/// chain-cover skips; worst case O(k·n²).
///
/// Validates that the sequence is non-empty and the alphabet sizes match.
Result<MssResult> FindMss(const seq::Sequence& sequence,
                          const seq::MultinomialModel& model);

/// Kernel variant for callers that already built the prefix counts and
/// evaluation context (benchmarks reuse them across algorithms). Inputs
/// must be consistent (same alphabet size) and non-empty.
MssResult FindMss(const seq::PrefixCounts& counts,
                  const ChiSquareContext& context);

/// The chain-cover MSS scan behind FindMss, FindMssMinLength and
/// FindMssLengthBounded (FindTopDisjoint runs the same scan through
/// ChainCoverScan, recording its running best): the highest-X² substring
/// contained in [range_start, range_end) with min_length <= length <=
/// max_length. Returns a result with best.length() == 0 if no substring
/// qualifies.
MssResult FindMssInRange(const seq::PrefixCounts& counts,
                         const ChiSquareContext& context, int64_t range_start,
                         int64_t range_end, int64_t min_length,
                         int64_t max_length);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_MSS_H_
