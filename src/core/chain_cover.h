#ifndef SIGSUB_CORE_CHAIN_COVER_H_
#define SIGSUB_CORE_CHAIN_COVER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
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

namespace internal {

/// The positive root of symbol c's cover quadratic (see above): the
/// largest real x with the cover constraint satisfied.
inline double CoverRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                        double budget) {
  double a = 1.0 - p_c;
  double b = 2.0 * static_cast<double>(y_c) -
             2.0 * static_cast<double>(l) * p_c - p_c * budget;
  double c = (x2_l - budget) * static_cast<double>(l) * p_c;
  if (c > 0.0) return 0.0;  // X²_l already above budget: no safe extension.
  double disc = b * b - 4.0 * a * c;
  double sq = std::sqrt(disc);
  // Positive root of an upward parabola with q(0) = c <= 0. Use the
  // cancellation-free branch.
  if (b <= 0.0) return (-b + sq) / (2.0 * a);
  return (-2.0 * c) / (b + sq);
}

/// Evaluates the per-character cover quadratic
///   q(x) = (1 − p_c)x² + (2Y_c − 2lp_c − p_c·B)x + (X²_l − B)·l·p_c
/// in long double, used to verify integer skip candidates exactly enough
/// that floating-point error can only cost skip length, never correctness.
inline long double CoverQuadraticAt(int64_t y_c, double p_c, int64_t l,
                                    double x2_l, double budget, int64_t x) {
  long double a = 1.0L - static_cast<long double>(p_c);
  long double b = 2.0L * static_cast<long double>(y_c) -
                  2.0L * static_cast<long double>(l) * p_c -
                  static_cast<long double>(p_c) * budget;
  long double c = (static_cast<long double>(x2_l) - budget) *
                  static_cast<long double>(l) * p_c;
  long double lx = static_cast<long double>(x);
  return (a * lx + b) * lx + c;
}

/// True only if CoverQuadraticAt(y_c, p_c, l, x2_l, budget, x) <= 0 for
/// x2_l <= budget, decided from `root`, CoverRoot's value for the same
/// arguments; false when it cannot tell. Inside the bounds it checks
/// (0 <= Y_c, l <= 2³⁰, 0 < p_c <= 15/16, |B| <= 2²⁰, 0 <= x, root <= 2³⁰),
/// the linear coefficient's terms W = 2Y_c + 2lp_c + p_c|B| stay at most
/// 2³² + 2²⁰ and 1/a at most 2⁴. CoverRoot's coefficients carry at most
/// three roundings each and its formulas add no cancellation, so its root
/// lies within 2⁻⁴⁸·root + 2⁻⁴⁹·W/a < 0.54·2⁻¹² of the exact root r. The
/// long double evaluation lies within 2⁻⁶¹·S of the exact quadratic, S
/// being the sum of the magnitudes of its terms. For 0 <= x < r the exact
/// quadratic is −a(r − x)(x + |r₂|) (r₂ <= 0 the other root), which
/// exceeds that error in magnitude once r − x > 2⁻⁶⁰·r + 2⁻⁶¹·W/a, less
/// than 2⁻²⁴ here. So root − x > 2⁻¹² leaves the long double value below
/// zero. The check is a subtraction and a few compares; the long double
/// evaluation is a chain of some twenty x87 operations, and when the
/// shared host contends for the core those operations set the lockstep
/// scan's speed.
inline bool RootClearsCandidate(int64_t y_c, double p_c, int64_t l,
                                double budget, double root, int64_t x) {
  constexpr int64_t kMax = int64_t{1} << 30;
  return static_cast<uint64_t>(y_c) <= static_cast<uint64_t>(kMax) &&
         l <= kMax && x >= 0 && p_c > 0.0 && p_c <= 0.9375 &&
         std::fabs(budget) <= 0x1p20 && root <= 0x1p30 &&
         root - static_cast<double>(x) > 0x1p-12;
}

}  // namespace internal

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
  /// the span overload for identical counts. Defined here so it inlines
  /// into the scan loops. (The 2-D scan instead gathers its rectangle
  /// counts once via X2Kernel::EvaluateRect's counts_out and uses the
  /// span overload — a rect gather is 4 plane lookups per symbol, too
  /// expensive to repeat per consumer.)
  int64_t MaxSafeExtension(const int64_t* start_block,
                           const int64_t* end_block, int64_t l, double x2_l,
                           double budget) const {
    return MaxSafeExtensionImpl(
        [&](size_t c) { return end_block[c] - start_block[c]; }, l, x2_l,
        budget);
  }

  /// The root of the per-character quadratic for symbol c: the (real)
  /// largest x with the cover constraint satisfied for this character.
  /// Exposed for tests and the ablation bench.
  double CharacterRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                       double budget) const {
    return internal::CoverRoot(y_c, p_c, l, x2_l, budget);
  }

 private:
  /// Shared core of the MaxSafeExtension overloads. `count_at(c)` yields
  /// Y_c however the caller stores it (materialized span or two prefix
  /// blocks); the skip logic is identical, so both overloads return
  /// identical results for identical counts. Only the largest count of
  /// each probability class binds (see the note above).
  template <typename CountAt>
  int64_t MaxSafeExtensionImpl(const CountAt& count_at, int64_t l,
                               double x2_l, double budget) const {
    SIGSUB_DCHECK(l >= 1);
    // Written so that a NaN budget or X² also skips nothing.
    if (!(x2_l <= budget)) return 0;

    const size_t num_classes = class_probs_.size();
    const double* probs = class_probs_.data();
    if (num_classes == 1) {
      // One class, as under a uniform null: its members are all k symbols
      // in order, so the largest count and its root need no class arrays.
      const int k = class_ends_[0];
      int64_t y = count_at(0);
      for (int c = 1; c < k; ++c) y = std::max(y, count_at(c));
      const double root = internal::CoverRoot(y, probs[0], l, x2_l, budget);
      int64_t m = FloorOfRoot(root);
      // The check below, for the one class.
      while (m > 0 &&
             !internal::RootClearsCandidate(y, probs[0], l, budget, root, m) &&
             internal::CoverQuadraticAt(y, probs[0], l, x2_l, budget, m) >
                 0.0L) {
        --m;
      }
      return m;
    }
    const int* symbols = class_symbols_.data();
    const int* ends = class_ends_.data();
    // The largest count and the root of each class, kept for the check
    // below (k <= 255, as MultinomialModel enforces). The first loop writes
    // entries [0, num_classes) before the check reads them; zero-filling
    // all 256 instead would cost more than the k=4 skip itself.
    int64_t class_max[256];
    double class_root[256];
    double min_root = std::numeric_limits<double>::infinity();
    for (size_t j = 0, i = 0; j < num_classes; ++j) {
      int64_t y = count_at(symbols[i]);
      for (++i; i < static_cast<size_t>(ends[j]); ++i) {
        y = std::max(y, count_at(symbols[i]));
      }
      class_max[j] = y;
      double root = internal::CoverRoot(y, probs[j], l, x2_l, budget);
      class_root[j] = root;
      if (root < min_root) min_root = root;
    }
    int64_t m = FloorOfRoot(min_root);

    // Verify the integer candidate against every class's binding quadratic
    // in extended precision; floating-point error in the root can otherwise
    // overshoot by one position. Each decrement is at most a rounding step,
    // so this loop runs O(1) times in practice. A root clear of the
    // candidate settles the check without the long double evaluation.
    for (size_t j = 0; j < num_classes && m > 0;) {
      if (!internal::RootClearsCandidate(class_max[j], probs[j], l, budget,
                                         class_root[j], m) &&
          internal::CoverQuadraticAt(class_max[j], probs[j], l, x2_l, budget,
                                     m) > 0.0L) {
        --m;
        j = 0;  // Re-verify all classes at the smaller candidate.
        continue;
      }
      ++j;
    }
    return m;
  }

  /// The skip candidate for the smallest root: its floor, or 0 unless it
  /// is positive.
  static int64_t FloorOfRoot(double root) {
    if (!(root > 0.0)) return 0;
    // Guard against pathological overflow of the cast below.
    if (root > 9.0e18) root = 9.0e18;
    // root > 0 here, so truncation is the floor (and needs no libm call on
    // a target without roundsd).
    return static_cast<int64_t>(root);
  }

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
/// of the row, evaluate X² of S[i, end) from two prefix blocks, and jump
/// past every ending position that MaxSafeExtension proves cannot score
/// above the budget B. The variants differ only in B:
///
///   MSS, min-length and length-bounded MSS (Problems 1 and 4)
///                                      — the running maximum;
///   top-t (Problem 2, Algorithm 2)     — the t-th best so far;
///   threshold (Problem 3, Algorithm 3) — the fixed cutoff α₀;
///   top-disjoint segment scans         — the segment's running maximum;
///   parallel MSS shard                 — the maximum shared by all shards.
///
/// Scans the substrings of [lo, hi) with min_length <= length <=
/// max_length, taking start positions hi − min_length − shard, then every
/// num_shards-th one below it, down to lo. Returns the scan's counters.
///
/// The visitor contract. `visit(i, end, x2)` returns the visitor's floor.
/// The scan calls it only for a candidate with x2 > floor, where the floor
/// is the value `visit` last returned (−∞ before the first call), so a
/// visitor must leave its state alone, and would return the same value,
/// for every candidate with !(x2 > floor). Without `budget_of`, the floor
/// is also the budget B of the skips: MSS, min-length, length-bounded,
/// top-t, threshold and top-disjoint all work that way, each leaving its
/// state unchanged whenever !(x2 > B). `budget_of()`, when given, supplies
/// B instead, read after each visit and whenever a row is committed: the
/// parallel shard's floor is its own best, while its B is the maximum
/// shared by all shards. `Visit` and `Budget` are template parameters so
/// the calls inline into the loop.
///
/// Lockstep rows. The skip of each examined position gives the address of
/// the next one, so a row is one chain of dependent loads, X² evaluations
/// and root solves. The scan keeps a window of up to kRows = 2
/// consecutive rows and steps each of them once per round, so their
/// chains overlap. The first row of the window leads: every row before it
/// is committed, so it visits a candidate above the floor where it meets
/// it. A later row that meets one waits there until it leads. When a
/// visit moves the floor or the budget, the rows behind the leader, which
/// were stepped at the old values, restart from their first position.
/// Rows are committed, counters and all, in serial order as each finished
/// one reaches the front. This is exact: every position a row has stepped
/// since it last restarted was stepped at the floor and budget that the
/// serial loop would hold there, since only the rows before it visit in
/// between and none of those visits moved either value; so each visit,
/// skip and counter is the serial one (a copy of the serial loop in
/// tests/testing/chain_cover_reference.h checks this bit for bit). The
/// window halves when a visit moves the floor or the budget, or a row has
/// to wait, and doubles when a row is committed with neither since the
/// last commit. So on records where the floor rises in almost every row
/// little stepped work is thrown away, and where most candidates are above
/// the floor the rows do not sit idle behind the leader.
template <typename Visit, typename Budget = std::nullptr_t>
ScanStats ChainCoverScan(const seq::PrefixCounts& counts,
                         const ChiSquareContext& context, int64_t lo,
                         int64_t hi, int64_t min_length, int64_t max_length,
                         int shard, int num_shards, Visit&& visit,
                         Budget&& budget_of = nullptr) {
  constexpr bool kFloorIsBudget = std::is_null_pointer_v<Budget>;
  // Rows stepped in lockstep at most. Overlapping rows needs the core's
  // spare issue slots, which a shared host sometimes takes away: MSS on a
  // 16k-symbol k = 4 record took 26 ms with four rows and 33-35 ms with
  // two while the core was free, 43-47 ms with either while it was
  // contended (the serial loop: 60-64 and 63-68 ms). Two rows keep most
  // of the gain and vary far less with the host's load.
  constexpr int kRows = 2;
  // One row of the window: its start, the next ending position to step,
  // and the counters of the positions stepped since it last restarted.
  struct Row {
    int64_t start;
    const int64_t* start_block;
    int64_t end;
    int64_t row_end;
    int64_t examined;
    int64_t skip_events;
    int64_t skipped;
    bool waiting;  // Met a candidate above the floor; visits it on leading.
  };
  const SkipSolver solver(context);
  const X2Kernel kernel(context);
  ScanStats stats;
  const int64_t first_start = hi - min_length - shard;
  stats.start_positions =
      first_start >= lo ? (first_start - lo) / num_shards + 1 : 0;
  double visit_floor = -std::numeric_limits<double>::infinity();
  double budget = visit_floor;

  Row rows[kRows];
  int size = 0;   // Rows in the window, in serial order: rows[0] leads.
  int width = 1;  // Rows the window may hold.
  // Since the last commit, a visit moved the floor or budget, or a row
  // had to wait. Either halves the window.
  bool stalled = false;
  auto narrow = [&] {
    stalled = true;
    width = std::max(width / 2, 1);
  };
  int64_t next_start = first_start;
  auto open_row = [&](int64_t i) {
    // min(hi, i + max_length) without overflow for max_length near
    // INT64_MAX.
    const int64_t row_end = hi - i > max_length ? i + max_length : hi;
    return Row{i, counts.BlockAt(i), i + min_length, row_end, 0, 0, 0, false};
  };
  for (;;) {
    // Commit the finished rows at the front of the window.
    if (size > 0 && rows[0].end > rows[0].row_end) {
      int done = 0;
      do {
        stats.positions_examined += rows[done].examined;
        stats.skip_events += rows[done].skip_events;
        stats.positions_skipped += rows[done].skipped;
        ++done;
      } while (done < size && rows[done].end > rows[done].row_end);
      std::copy(rows + done, rows + size, rows);
      size -= done;
      if (!stalled) width = std::min(2 * width, kRows);
      stalled = false;
      if constexpr (!kFloorIsBudget) budget = budget_of();
    }
    while (size < width && next_start >= lo) {
      rows[size++] = open_row(next_start);
      next_start -= num_shards;
    }
    if (size == 0) break;

    for (int r = 0; r < size; ++r) {
      Row& row = rows[r];
      if (row.end > row.row_end || (r > 0 && row.waiting)) continue;
      const int64_t* end_block = counts.BlockAt(row.end);
      const int64_t l = row.end - row.start;
      const double x2 = kernel.EvaluateBlocks(row.start_block, end_block, l);
      if (x2 > visit_floor) {
        if (r > 0) {
          row.waiting = true;
          narrow();
          continue;
        }
        row.waiting = false;
        const double old_floor = visit_floor;
        const double old_budget = budget;
        visit_floor = visit(row.start, row.end, x2);
        if constexpr (kFloorIsBudget) {
          budget = visit_floor;
        } else {
          budget = budget_of();
        }
        if (visit_floor != old_floor || budget != old_budget) {
          narrow();
          if (size > width) {
            next_start = rows[width].start;
            size = width;
          }
          for (int q = 1; q < size; ++q) rows[q] = open_row(rows[q].start);
        }
      }
      ++row.examined;
      const int64_t skip =
          solver.MaxSafeExtension(row.start_block, end_block, l, x2, budget);
      if (skip > 0) {
        ++row.skip_events;
        row.skipped += std::min(row.end + skip, row.row_end) - row.end;
      }
      row.end += skip + 1;
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
