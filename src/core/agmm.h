#ifndef SIGSUB_CORE_AGMM_H_
#define SIGSUB_CORE_AGMM_H_

#include "common/result.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "seq/model.h"
#include "seq/prefix_counts.h"
#include "seq/sequence.h"

namespace sigsub {
namespace core {

/// AGMM baseline — reconstruction of the O(n) global-extrema heuristic of
/// Dutta & Bhattacharya (PAKDD 2010), the paper's reference [9], rebuilt
/// from its published description.
///
/// For each character c it locates the global maximum and the global
/// minimum of the deviation walk W_c(j) = count_c(S[0..j)) − j·p_c and
/// scores the substring spanned by the two positions (the largest single
/// excursion of that walk), the prefix/suffix candidates up to each
/// extremum, and the steepest normalized rise/fall against the running
/// prefix extrema (a Kadane-style excursion candidate per direction). The
/// best of these O(k) candidates is returned. O(k·n + k²) time; no
/// approximation guarantee — the returned X² can be well below the true
/// MSS (the paper's Tables 1, 4 and 6 show exactly this failure mode).
Result<MssResult> FindMssAgmm(const seq::Sequence& sequence,
                              const seq::MultinomialModel& model);

/// Kernel variant.
MssResult FindMssAgmm(const seq::Sequence& sequence,
                      const seq::PrefixCounts& counts,
                      const ChiSquareContext& context);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_AGMM_H_
