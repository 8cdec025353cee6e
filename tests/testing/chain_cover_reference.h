#ifndef SIGSUB_TESTS_TESTING_CHAIN_COVER_REFERENCE_H_
#define SIGSUB_TESTS_TESTING_CHAIN_COVER_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/atomic_max.h"
#include "core/chi_square.h"
#include "core/scan_types.h"
#include "core/top_t.h"
#include "core/x2_kernel.h"
#include "seq/prefix_counts.h"

namespace sigsub {
namespace testing {

/// The chain-cover skip as core::SkipSolver ran it before the solver moved
/// into chain_cover.h: one cover quadratic per probability class, compiled
/// out of line (noinline here), with std::floor on the root. Kept verbatim
/// as the reference that the lockstep scan must reproduce bit for bit
/// (tests/core/chain_cover_differential_test.cc) and as the baseline the
/// `chain_cover_*` rows of bench_micro_core time it against.
class OutOfLineSkipSolver {
 public:
  explicit OutOfLineSkipSolver(const core::ChiSquareContext& context) {
    std::span<const double> probs = context.probs();
    const int k = context.alphabet_size();
    for (int c = 0; c < k; ++c) {
      if (std::find(probs.begin(), probs.begin() + c, probs[c]) !=
          probs.begin() + c) {
        continue;  // Symbol c joined the class of an earlier symbol.
      }
      for (int d = c; d < k; ++d) {
        if (probs[d] == probs[c]) class_symbols_.push_back(d);
      }
      class_probs_.push_back(probs[c]);
      class_ends_.push_back(static_cast<int>(class_symbols_.size()));
    }
  }

  [[gnu::noinline]] int64_t MaxSafeExtension(const int64_t* start_block,
                                             const int64_t* end_block,
                                             int64_t l, double x2_l,
                                             double budget) const {
    SIGSUB_DCHECK(l >= 1);
    // Written so that a NaN budget or X² also skips nothing.
    if (!(x2_l <= budget)) return 0;

    const size_t num_classes = class_probs_.size();
    const double* probs = class_probs_.data();
    const int* symbols = class_symbols_.data();
    const int* ends = class_ends_.data();
    auto count_at = [&](size_t c) { return end_block[c] - start_block[c]; };
    int64_t class_max[256];
    double min_root = std::numeric_limits<double>::infinity();
    for (size_t j = 0, i = 0; j < num_classes; ++j) {
      int64_t y = count_at(symbols[i]);
      for (++i; i < static_cast<size_t>(ends[j]); ++i) {
        y = std::max(y, count_at(symbols[i]));
      }
      class_max[j] = y;
      double root = CoverRoot(y, probs[j], l, x2_l, budget);
      if (root < min_root) min_root = root;
    }
    if (!(min_root > 0.0)) return 0;
    // Guard against pathological overflow of the cast below.
    if (min_root > 9.0e18) min_root = 9.0e18;
    int64_t m = static_cast<int64_t>(std::floor(min_root));
    if (m <= 0) return 0;

    // Verify the integer candidate against every class's binding
    // quadratic in extended precision.
    for (size_t j = 0; j < num_classes && m > 0;) {
      if (CoverQuadraticAt(class_max[j], probs[j], l, x2_l, budget, m) >
          0.0L) {
        --m;
        j = 0;  // Re-verify all classes at the smaller candidate.
        continue;
      }
      ++j;
    }
    return m;
  }

 private:
  static double CoverRoot(int64_t y_c, double p_c, int64_t l, double x2_l,
                          double budget) {
    double a = 1.0 - p_c;
    double b = 2.0 * static_cast<double>(y_c) -
               2.0 * static_cast<double>(l) * p_c - p_c * budget;
    double c = (x2_l - budget) * static_cast<double>(l) * p_c;
    if (c > 0.0) return 0.0;  // X²_l already above budget.
    double disc = b * b - 4.0 * a * c;
    double sq = std::sqrt(disc);
    if (b <= 0.0) return (-b + sq) / (2.0 * a);
    return (-2.0 * c) / (b + sq);
  }

  static long double CoverQuadraticAt(int64_t y_c, double p_c, int64_t l,
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

  std::vector<double> class_probs_;
  std::vector<int> class_ends_;
  std::vector<int> class_symbols_;
};

/// The serial Algorithm 1 loop core::ChainCoverScan ran before it scanned
/// rows in lockstep: one row at a time, `visit` called at every examined
/// position, the skip taken against the budget `visit` returned.
template <typename Visit>
core::ScanStats ReferenceChainCoverScan(const seq::PrefixCounts& counts,
                                        const core::ChiSquareContext& context,
                                        int64_t lo, int64_t hi,
                                        int64_t min_length,
                                        int64_t max_length, int shard,
                                        int num_shards, Visit&& visit) {
  core::ScanStats stats;
  OutOfLineSkipSolver solver(context);
  core::X2Kernel kernel(context);
  for (int64_t i = hi - min_length - shard; i >= lo; i -= num_shards) {
    ++stats.start_positions;
    const int64_t* start_block = counts.BlockAt(i);
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

/// core::FindMssInRange over the reference loop (MSS, min-length and
/// length-bounded MSS are this call with different lengths).
inline core::MssResult ReferenceFindMssInRange(
    const seq::PrefixCounts& counts, const core::ChiSquareContext& context,
    int64_t range_start, int64_t range_end, int64_t min_length,
    int64_t max_length) {
  core::MssResult result;
  result.best = core::Substring{range_start, range_start, 0.0};
  bool found = false;
  result.stats = ReferenceChainCoverScan(
      counts, context, range_start, range_end, min_length, max_length,
      /*shard=*/0, /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
        if (x2 > result.best.chi_square || !found) {
          found = true;
          result.best = core::Substring{i, end, x2};
        }
        return result.best.chi_square;
      });
  return result;
}

/// core::FindTopT over the reference loop.
inline core::TopTResult ReferenceFindTopT(
    const seq::PrefixCounts& counts, const core::ChiSquareContext& context,
    int64_t t) {
  const int64_t n = counts.sequence_size();
  core::TopTResult result;
  core::TopTCollector collector(t);
  result.stats = ReferenceChainCoverScan(
      counts, context, 0, n, /*min_length=*/1, n, /*shard=*/0,
      /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
        collector.Offer(core::Substring{i, end, x2});
        return collector.budget();
      });
  result.top = collector.TakeSortedDescending();
  return result;
}

/// core::FindAboveThreshold over the reference loop.
inline core::ThresholdResult ReferenceFindAboveThreshold(
    const seq::PrefixCounts& counts, const core::ChiSquareContext& context,
    double alpha0, int64_t max_matches) {
  const int64_t n = counts.sequence_size();
  core::ThresholdResult result;
  result.stats = ReferenceChainCoverScan(
      counts, context, 0, n, /*min_length=*/1, n, /*shard=*/0,
      /*num_shards=*/1, [&](int64_t i, int64_t end, double x2) {
        if (x2 > alpha0) {
          core::Substring match{i, end, x2};
          ++result.match_count;
          if (static_cast<int64_t>(result.matches.size()) < max_matches) {
            result.matches.push_back(match);
          }
          if (result.match_count == 1 || x2 > result.best.chi_square) {
            result.best = match;
          }
        }
        return alpha0;
      });
  return result;
}

/// core::MssShardScan over the reference loop: the budget is a fresh load
/// of the shared maximum at every examined position.
inline core::MssResult ReferenceMssShardScan(
    const seq::PrefixCounts& counts, const core::ChiSquareContext& context,
    int shard, int num_shards, core::AtomicMax* shared_best) {
  const int64_t n = counts.sequence_size();
  core::MssResult local;
  local.best = core::Substring{0, 0, 0.0};
  bool found = false;
  local.stats = ReferenceChainCoverScan(
      counts, context, 0, n, /*min_length=*/1, n, shard, num_shards,
      [&](int64_t i, int64_t end, double x2) {
        if (x2 > local.best.chi_square || !found) {
          found = true;
          local.best = core::Substring{i, end, x2};
          shared_best->Update(x2);
        }
        return shared_best->load();
      });
  return local;
}

}  // namespace testing
}  // namespace sigsub

#endif  // SIGSUB_TESTS_TESTING_CHAIN_COVER_REFERENCE_H_
