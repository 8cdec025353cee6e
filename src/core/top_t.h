#ifndef SIGSUB_CORE_TOP_T_H_
#define SIGSUB_CORE_TOP_T_H_

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

/// The largest t a top-t search accepts (2^20), which is also the most
/// heap entries TopTCollector reserves. Below capacity the skip budget is
/// −∞, so a t at or above the n(n+1)/2 substrings of a record would scan
/// and keep every one of them: O(n²) time and memory from one query.
inline constexpr int64_t kMaxTopT = int64_t{1} << 20;

/// Min-heap of the best t substrings seen so far, mirroring the heap of
/// Algorithm 2. While the heap is below capacity every candidate is
/// accepted regardless of score — on a perfectly balanced sequence
/// (all X² = 0) the collector still fills up to t entries rather than
/// returning nothing. Once full, a candidate must score strictly above
/// the t-th best to displace it. `budget()` is the paper's X²_max_t —
/// the value a new substring must beat, and the bound handed to the
/// chain-cover skip; it is -infinity while the heap is filling, which
/// disables skipping until t candidates have been collected (a skipped
/// substring could otherwise have been needed to fill the heap).
class TopTCollector {
 public:
  explicit TopTCollector(int64_t t);

  int64_t capacity() const { return t_; }
  int64_t size() const { return static_cast<int64_t>(heap_.size()); }
  double budget() const;

  /// Inserts `candidate` unless the heap is full and the candidate does
  /// not beat the budget; returns true if inserted.
  bool Offer(const Substring& candidate);

  /// Destructively extracts the collected substrings in descending X²
  /// order.
  std::vector<Substring> TakeSortedDescending();

 private:
  int64_t t_;
  std::vector<Substring> heap_;  // Min-heap on chi_square.
};

/// Problem 2 (Top-t substrings): the t substrings with the highest X²
/// values, in descending order. Paper Algorithm 2; O((k + log t)·n^{3/2})
/// with high probability. Requires 1 <= t <= kMaxTopT.
Result<TopTResult> FindTopT(const seq::Sequence& sequence,
                            const seq::MultinomialModel& model, int64_t t);

/// Kernel variant (see FindMss).
TopTResult FindTopT(const seq::PrefixCounts& counts,
                    const ChiSquareContext& context, int64_t t);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_TOP_T_H_
