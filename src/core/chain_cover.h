#ifndef SIGSUB_CORE_CHAIN_COVER_H_
#define SIGSUB_CORE_CHAIN_COVER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/chi_square.h"
#include "core/scan_types.h"
#include "core/x2_kernel.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace core {

/// The chain-cover machinery of the paper (Definition 1, Lemmas 1-2,
/// Theorem 1). For a substring S with count vector {Y_c}, length l and
/// statistic X²_l, the cover string λ(S, c, x) appends x copies of symbol c;
/// its statistic is
///
///   X²_λ(c, x) = l(X²_l + l)/(l + x) + (2xY_c + x²)/((l + x)p_c) − (l + x)
///
/// (paper Eq. 19). Theorem 1: the X² of ANY extension of S by at most x
/// characters is bounded by max_c X²_λ(c, x). Requiring that bound to stay
/// <= a budget B yields, per character, the quadratic constraint
///
///   (1 − p_c)·x² + (2Y_c − 2lp_c − p_c·B)·x + (X²_l − B)·l·p_c <= 0
///
/// (paper Eq. 21), whose largest feasible integer x, minimized over c, is
/// the number of ending positions the scan may skip without ever missing a
/// substring scoring above B.
///
/// Note on the paper's pseudocode: Algorithm 1 line 9 selects the cover
/// character as argmax_c (2Y_c + x)/p_c with x not yet known (the argmax can
/// depend on x when P is skewed). We implement the exact fixed point
/// instead: the binding character is the one with the smallest root, so we
/// take the minimum root over the characters.
///
/// Under equal probabilities the paper's single-character rule is exact,
/// and so it is inside any probability class (the symbols whose p_c are
/// bit-equal, which SkipSolver groups when it is built). Within a class the
/// quadratic's a = 1 − p and constant (X²_l − B)·l·p are shared, and
/// b_c = 2Y_c − 2lp − pB differs only through Y_c. The positive root
/// falls as b grows, so the member with the largest Y_c binds. For any
/// other member q_c(x) = q_max(x) − 2(Y_max − Y_c)·x, at least 2x below
/// q_max(x). So the solver solves one quadratic per class, k for an
/// all-distinct model but one under a uniform null, and verifies only
/// those. Each floating-point step of the long double check, and of each
/// of CharacterRoot's two formulas, is monotone in Y_c; members that fall
/// on either side of the switch between the formulas have b at least 2
/// apart, and roots far more than a rounding apart. So the skip is
/// bit-identical to taking all k roots, which a differential test and a
/// fuzz harness check against a copy of that solver.

/// X² of the chain cover λ(S, c, x) given the base substring's statistic.
/// `x` may be fractional (used by tests to probe the bound's continuity).
double CoverChiSquare(double x2_l, int64_t l, int64_t y_c, double p_c,
                      double x);

/// Computes safe skip lengths. Holds the model's probability classes,
/// grouped once at construction (O(k²) comparisons); build one per scan.
class SkipSolver {
 public:
  explicit SkipSolver(const ChiSquareContext& context);

  /// Largest integer m >= 0 such that every extension of the current
  /// substring (counts, l, X²_l) by 1..m characters has X² <= budget.
  /// Callers may then jump the scan's next examined ending position forward
  /// by m (examining position l + m + 1 next).
  ///
  /// Requires l >= 1. If X²_l > budget, or either is NaN, the result is 0
  /// (paper Algorithm 3's `max(..., 1)` advance corresponds to skip 0
  /// here).
  ///
  /// Solves one cover quadratic per probability class, for the class's
  /// largest Y_c, and verifies the integer skip against those quadratics
  /// only: the other members' constraints are implied (see the note
  /// above), so the result equals the minimum over all k characters.
  int64_t MaxSafeExtension(std::span<const int64_t> counts, int64_t l,
                           double x2_l, double budget) const;

  /// Fused form: reads Y_c = end_block[c] − start_block[c] straight from
  /// two position-major PrefixCounts blocks (seq::PrefixCounts::BlockAt),
  /// so scanners need no materialized count vector. Identical results to
  /// the span overload for identical counts. (The 2-D scan instead gathers
  /// its rectangle counts once via X2Kernel::EvaluateRect's counts_out and
  /// uses the span overload — a rect gather is 4 plane lookups per symbol,
  /// too expensive to repeat per consumer.)
  int64_t MaxSafeExtension(const int64_t* start_block,
                           const int64_t* end_block, int64_t l, double x2_l,
                           double budget) const;

  /// The root of the per-character quadratic for symbol c: the (real)
  /// largest x with the cover constraint satisfied for this character.
  /// Exposed for tests and the ablation bench.
  double CharacterRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                       double budget) const;

 private:
  template <typename CountAt>
  int64_t MaxSafeExtensionImpl(const CountAt& count_at, int64_t l,
                               double x2_l, double budget) const;

  /// The probability classes, in order of each class's first symbol:
  /// class j has probability class_probs_[j] and the members
  /// class_symbols_[class_ends_[j − 1], class_ends_[j]) (from 0 for
  /// j = 0), in symbol order.
  std::vector<double> class_probs_;
  std::vector<int> class_ends_;
  std::vector<int> class_symbols_;
};

/// Paper Algorithm 1, the scan loop every chain-cover interval kernel runs:
/// for each start i (from the right end down), walk the ending positions
/// of the row, evaluate X² of S[i, end) from two prefix blocks, call
/// `visit(i, end, x2)`, and jump past every ending position that
/// MaxSafeExtension proves cannot score above the budget B `visit`
/// returned. The variants differ only in B:
///
///   MSS, min-length and length-bounded MSS (Problems 1 and 4)
///                                      — the running maximum;
///   top-t (Problem 2, Algorithm 2)     — the t-th best so far;
///   threshold (Problem 3, Algorithm 3) — the fixed cutoff α₀;
///   parallel MSS shard                 — the maximum shared by all shards.
///
/// Scans the substrings of [lo, hi) with min_length <= length <=
/// max_length, taking start positions hi − min_length − shard, then every
/// num_shards-th one below it, down to lo. `Visit` is a template
/// parameter so the call inlines into the loop. Returns the scan's
/// counters.
template <typename Visit>
ScanStats ChainCoverScan(const seq::PrefixCounts& counts,
                         const ChiSquareContext& context, int64_t lo,
                         int64_t hi, int64_t min_length, int64_t max_length,
                         int shard, int num_shards, Visit&& visit) {
  ScanStats stats;
  SkipSolver solver(context);
  X2Kernel kernel(context);
  for (int64_t i = hi - min_length - shard; i >= lo; i -= num_shards) {
    ++stats.start_positions;
    const int64_t* start_block = counts.BlockAt(i);
    // min(hi, i + max_length) without overflow for max_length near
    // INT64_MAX.
    const int64_t row_end = hi - i > max_length ? i + max_length : hi;
    int64_t end = i + min_length;
    while (end <= row_end) {
      const int64_t* end_block = counts.BlockAt(end);
      const int64_t l = end - i;
      const double x2 = kernel.EvaluateBlocks(start_block, end_block, l);
      ++stats.positions_examined;
      const double budget = visit(i, end, x2);
      const int64_t skip =
          solver.MaxSafeExtension(start_block, end_block, l, x2, budget);
      if (skip > 0) {
        ++stats.skip_events;
        stats.positions_skipped += std::min(end + skip, row_end) - end;
      }
      end += skip + 1;
    }
  }
  return stats;
}

/// The paper's literal skip rule (Algorithm 1 lines 9-13): pick the single
/// character t maximizing (2Y_t + x)/p_t with x approximated by the previous
/// skip (we use x = 0, i.e. argmax Y_t/p_t biased by the cover), solve only
/// that character's quadratic, and take the ceiling of the root. Kept for
/// the ablation bench; not used by the production scans because it is
/// unsound under a skewed model: the chosen character's root can exceed
/// another character's, so the skip can pass over the optimum.
int64_t PaperSingleCharacterSkip(const ChiSquareContext& context,
                                 std::span<const int64_t> counts, int64_t l,
                                 double x2_l, double budget);

}  // namespace core
}  // namespace sigsub

#endif  // SIGSUB_CORE_CHAIN_COVER_H_
