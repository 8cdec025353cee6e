#ifndef SIGSUB_CORE_LENGTH_BOUNDED_H_
#define SIGSUB_CORE_LENGTH_BOUNDED_H_

#include <cstdint>

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// MSS among substrings with min_length <= length <= max_length — the
/// windowed setting of the related work the paper discusses in Section 2
/// (episode mining constrains patterns to a window of size w), folded into
/// the skip-scan framework. It is FindMssInRange over the whole sequence;
/// FindMss and FindMssMinLength are its windows (1, n) and (Γ₀+1, n). The
/// chain-cover skip applies unchanged; the cap only shortens each scan row.
Result<MssResult> FindMssLengthBounded(const seq::Sequence& sequence,
                                       const seq::MultinomialModel& model,
                                       int64_t min_length,
                                       int64_t max_length);

/// Kernel variant. Requires max_length >= min_length.
MssResult FindMssLengthBounded(const seq::PrefixCounts& counts,
                               const ChiSquareContext& context,
                               int64_t min_length, int64_t max_length);

/// Exact O(n·w) baseline for tests (w = max_length).
Result<MssResult> NaiveFindMssLengthBounded(
    const seq::Sequence& sequence, const seq::MultinomialModel& model,
    int64_t min_length, int64_t max_length);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_LENGTH_BOUNDED_H_
