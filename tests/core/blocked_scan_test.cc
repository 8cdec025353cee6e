#include "core/blocked_scan.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <tuple>

#include "core/chain_cover.h"
#include "core/naive.h"
#include "core/x2_kernel.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

TEST(BlockedScanTest, ValidatesInput) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  EXPECT_TRUE(FindMssBlocked(s, model, 0).status().IsInvalidArgument());
  seq::Sequence empty(2);
  EXPECT_TRUE(FindMssBlocked(empty, model).status().IsInvalidArgument());
}

class BlockedScanEquivalence
    : public ::testing::TestWithParam<std::tuple<int64_t, int, int64_t>> {};

TEST_P(BlockedScanEquivalence, ExactForEveryBlockSize) {
  auto [n, k, block_size] = GetParam();
  seq::Rng rng(static_cast<uint64_t>(n * 17 + k + block_size * 3));
  seq::Sequence s = seq::GenerateNull(k, n, rng);
  auto model = seq::MultinomialModel::Uniform(k);
  auto blocked = FindMssBlocked(s, model, block_size);
  auto exact = NaiveFindMss(s, model);
  ASSERT_TRUE(blocked.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_X2_EQ(blocked->best.chi_square, exact->best.chi_square)
      << "n=" << n << " k=" << k << " B=" << block_size;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedScanEquivalence,
    ::testing::Combine(::testing::Values<int64_t>(1, 7, 63, 64, 65, 400),
                       ::testing::Values(2, 3),
                       ::testing::Values<int64_t>(1, 3, 64, 1000)),
    [](const ::testing::TestParamInfo<BlockedScanEquivalence::ParamType>&
           info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_B" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BlockedScanTest, SkipsBlocksOnNullStrings) {
  seq::Rng rng(9);
  seq::Sequence s = seq::GenerateNull(2, 4000, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto blocked = FindMssBlocked(s, model, 64);
  ASSERT_TRUE(blocked.ok());
  EXPECT_GT(blocked->stats.skip_events, 0);
  // Constant-factor improvement: fewer examined than the trivial count but
  // (unlike the paper's algorithm) still the same order of magnitude.
  EXPECT_LT(blocked->stats.positions_examined, TrivialScanPositions(4000));
  EXPECT_EQ(
      blocked->stats.positions_examined + blocked->stats.positions_skipped,
      TrivialScanPositions(4000));
}

TEST(BlockedScanTest, BlockSizeOneDegeneratesToTrivialCount) {
  // With B = 1 nothing can be block-skipped.
  seq::Rng rng(10);
  seq::Sequence s = seq::GenerateNull(2, 100, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto blocked = FindMssBlocked(s, model, 1);
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->stats.positions_examined, TrivialScanPositions(100));
}

/// The blocked scan with every end scored one at a time: the loop
/// FindMssBlocked ran before it evaluated a dense block in batches.
MssResult PerEndBlockedScan(const seq::PrefixCounts& counts,
                            const ChiSquareContext& context,
                            int64_t block_size) {
  const int64_t n = counts.sequence_size();
  MssResult result;
  result.best = Substring{0, 0, 0.0};
  SkipSolver solver(context);
  X2Kernel kernel(context);
  bool found = false;
  for (int64_t i = n - 1; i >= 0; --i) {
    ++result.stats.start_positions;
    int64_t end = i + 1;
    while (end <= n) {
      const double x2 = kernel.EvaluateRange(counts, i, end);
      ++result.stats.positions_examined;
      if (x2 > result.best.chi_square || !found) {
        found = true;
        result.best = Substring{i, end, x2};
      }
      const int64_t block_last = std::min(end + block_size - 1, n);
      const int64_t m = block_last - end;
      if (m > 0) {
        const int64_t safe = solver.MaxSafeExtension(
            counts.BlockAt(i), counts.BlockAt(end), end - i, x2,
            result.best.chi_square);
        if (safe >= m) {
          ++result.stats.skip_events;
          result.stats.positions_skipped += m;
        } else {
          for (int64_t e = end + 1; e <= block_last; ++e) {
            const double x2e = kernel.EvaluateRange(counts, i, e);
            ++result.stats.positions_examined;
            if (x2e > result.best.chi_square) {
              result.best = Substring{i, e, x2e};
            }
          }
        }
      }
      end = block_last + 1;
    }
  }
  return result;
}

// Dense blocks go through the batched EvaluateEnds; the witness, its X²
// bits and all four counters must equal the per-end scan, for block
// sizes that leave 0–3 ends past the last vector.
TEST(BlockedScanTest, MatchesPerEndScan) {
  for (int k : {2, 3, 4}) {
    seq::Rng rng(4300 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 900, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext context(seq::MultinomialModel::Harmonic(k));
    for (int64_t block_size : {2, 5, 8, 64, 300, 5000}) {
      const MssResult want = PerEndBlockedScan(counts, context, block_size);
      const MssResult got = FindMssBlocked(s, counts, context, block_size);
      EXPECT_EQ(got.best.start, want.best.start) << k << " " << block_size;
      EXPECT_EQ(got.best.end, want.best.end) << k << " " << block_size;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.best.chi_square),
                std::bit_cast<uint64_t>(want.best.chi_square));
      EXPECT_EQ(got.stats.positions_examined, want.stats.positions_examined);
      EXPECT_EQ(got.stats.start_positions, want.stats.start_positions);
      EXPECT_EQ(got.stats.skip_events, want.stats.skip_events);
      EXPECT_EQ(got.stats.positions_skipped, want.stats.positions_skipped);
    }
  }
}

// A block at least as long as the row makes one block per row, so every
// block_size from n up to INT64_MAX scans alike. The block end
// end + block_size − 1 must not overflow on the way.
TEST(BlockedScanTest, HugeBlockSizeIsOneBlockPerRow) {
  seq::Rng rng(11);
  const int64_t n = 300;
  seq::Sequence s = seq::GenerateNull(2, n, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto one_block = FindMssBlocked(s, model, n);
  ASSERT_TRUE(one_block.ok());
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int64_t block_size : {n + 1, kMax / 2, kMax - 1, kMax}) {
    auto blocked = FindMssBlocked(s, model, block_size);
    ASSERT_TRUE(blocked.ok());
    EXPECT_EQ(blocked->best.start, one_block->best.start) << block_size;
    EXPECT_EQ(blocked->best.end, one_block->best.end) << block_size;
    EXPECT_EQ(blocked->best.chi_square, one_block->best.chi_square);
    EXPECT_EQ(blocked->stats.start_positions, n);
    EXPECT_EQ(blocked->stats.positions_examined,
              one_block->stats.positions_examined);
    EXPECT_EQ(blocked->stats.positions_skipped,
              one_block->stats.positions_skipped);
    EXPECT_EQ(blocked->stats.skip_events, one_block->stats.skip_events);
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
