#include "core/blocked_scan.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/str_util.h"
#include "core/chain_cover.h"
#include "core/x2_kernel.h"

namespace sigsub {
namespace core {

MssResult FindMssBlocked(const seq::Sequence& sequence,
                         const seq::PrefixCounts& counts,
                         const ChiSquareContext& context,
                         int64_t block_size) {
  SIGSUB_CHECK(sequence.alphabet_size() == context.alphabet_size());
  SIGSUB_CHECK(sequence.size() == counts.sequence_size());
  SIGSUB_CHECK(block_size >= 1);
  const int64_t n = sequence.size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  SkipSolver solver(context);
  X2Kernel kernel(context);
  // Caller-owned ends and X² buffers (see the scratch convention in
  // x2_kernel.h): a dense block is evaluated kRunChunk ends at a time.
  constexpr int64_t kRunChunk = 256;
  std::array<int64_t, kRunChunk> ends;
  std::array<double, kRunChunk> x2s;
  bool found = false;

  for (int64_t i = n - 1; i >= 0; --i) {
    ++result.stats.start_positions;
    const int64_t* lo = counts.BlockAt(i);
    int64_t end = i + 1;
    while (end <= n) {
      // Examine the block's first ending position.
      const int64_t* hi = counts.BlockAt(end);
      int64_t l = end - i;
      double x2 = kernel.EvaluateBlocks(lo, hi, l);
      ++result.stats.positions_examined;
      if (x2 > result.best.chi_square || !found) {
        found = true;
        result.best = Substring{i, end, x2};
      }
      // min(end + block_size − 1, n) without overflow for block_size near
      // INT64_MAX.
      const int64_t block_last =
          n - end >= block_size ? end + block_size - 1 : n;
      int64_t m = block_last - end;  // Remaining ends inside the block.
      if (m > 0) {
        int64_t safe =
            solver.MaxSafeExtension(lo, hi, l, x2, result.best.chi_square);
        if (safe >= m) {
          // Whole block is dominated: skip it (block granularity only).
          ++result.stats.skip_events;
          result.stats.positions_skipped += m;
        } else {
          // Evaluate the rest of the block in batches of consecutive
          // ends, then take them in order.
          for (int64_t e = end + 1; e <= block_last; e += kRunChunk) {
            const int64_t count = std::min(kRunChunk, block_last - e + 1);
            std::iota(ends.begin(), ends.begin() + count, e);
            kernel.EvaluateEnds(counts, i,
                                std::span<const int64_t>(ends.data(), count),
                                x2s);
            result.stats.positions_examined += count;
            for (int64_t j = 0; j < count; ++j) {
              if (x2s[j] > result.best.chi_square) {
                result.best = Substring{i, e + j, x2s[j]};
              }
            }
          }
        }
      }
      end = block_last + 1;
    }
  }
  return result;
}

Result<MssResult> FindMssBlocked(const seq::Sequence& sequence,
                                 const seq::MultinomialModel& model,
                                 int64_t block_size) {
  SIGSUB_RETURN_IF_ERROR(ValidateSequenceModel(sequence, model));
  if (block_size < 1) {
    return Status::InvalidArgument(
        StrCat("block_size must be >= 1, got ", block_size));
  }
  seq::PrefixCounts counts(sequence);
  ChiSquareContext context(model);
  return FindMssBlocked(sequence, counts, context, block_size);
}

}  // namespace core
}  // namespace sigsub
