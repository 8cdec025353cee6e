#include "seq/prefix_counts.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "seq/sequence.h"

namespace sigsub {
namespace seq {
namespace {

TEST(PrefixCountsTest, SmallHandComputed) {
  Sequence s = Sequence::FromSymbols(2, {0, 1, 1, 0, 1}).value();
  PrefixCounts pc(s);
  EXPECT_EQ(pc.sequence_size(), 5);
  EXPECT_EQ(pc.alphabet_size(), 2);
  EXPECT_EQ(pc.PrefixCount(0, 0), 0);
  EXPECT_EQ(pc.PrefixCount(0, 1), 1);
  EXPECT_EQ(pc.PrefixCount(1, 3), 2);
  EXPECT_EQ(pc.PrefixCount(1, 5), 3);
  EXPECT_EQ(pc.CountInRange(1, 1, 3), 2);
  EXPECT_EQ(pc.CountInRange(0, 1, 3), 0);
  EXPECT_EQ(pc.CountInRange(0, 0, 5), 2);
}

TEST(PrefixCountsTest, FillCountsMatchesDirectCount) {
  Rng rng(123);
  for (int k : {2, 4, 7}) {
    Sequence s = GenerateNull(k, 300, rng);
    PrefixCounts pc(s);
    std::vector<int64_t> fast(k);
    for (int64_t start = 0; start <= s.size(); start += 13) {
      for (int64_t end = start; end <= s.size(); end += 17) {
        pc.FillCounts(start, end, fast);
        std::vector<int64_t> slow = s.CountsInRange(start, end);
        EXPECT_EQ(fast, slow) << "k=" << k << " [" << start << "," << end
                              << ")";
      }
    }
  }
}

TEST(PrefixCountsTest, SymbolCountsStartAtZeroAndStepByAtMostOne) {
  Rng rng(5);
  Sequence s = GenerateNull(3, 50, rng);
  PrefixCounts pc(s);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(pc.PrefixCount(c, 0), 0);
    for (int64_t pos = 1; pos <= s.size(); ++pos) {
      EXPECT_GE(pc.PrefixCount(c, pos), pc.PrefixCount(c, pos - 1));
      EXPECT_LE(pc.PrefixCount(c, pos) - pc.PrefixCount(c, pos - 1), 1);
    }
  }
}

// Property test for the flat position-major layout: on random sequences —
// including the extreme alphabet sizes and the degenerate ranges — every
// FillCounts answer must agree with a straightforward per-symbol recount of
// the underlying symbols.
TEST(PrefixCountsTest, FlatLayoutAgreesWithPerSymbolRecount) {
  Rng rng(20260729);
  for (int k : {2, 3, 26}) {
    for (int64_t n : {int64_t{1}, int64_t{37}, int64_t{512}}) {
      Sequence s = GenerateNull(k, n, rng);
      PrefixCounts pc(s);
      std::vector<int64_t> fast(k);
      auto recount = [&](int64_t start, int64_t end) {
        std::vector<int64_t> slow(k, 0);
        for (int64_t i = start; i < end; ++i) ++slow[s[i]];
        return slow;
      };
      // Random ranges plus the empty and full-sequence ranges.
      for (int trial = 0; trial < 64; ++trial) {
        int64_t a = static_cast<int64_t>(rng.NextDouble() * (n + 1));
        int64_t b = static_cast<int64_t>(rng.NextDouble() * (n + 1));
        if (a > b) std::swap(a, b);
        pc.FillCounts(a, b, fast);
        ASSERT_EQ(fast, recount(a, b)) << "k=" << k << " [" << a << "," << b
                                       << ")";
      }
      for (int64_t pos = 0; pos <= n; ++pos) {
        pc.FillCounts(pos, pos, fast);
        ASSERT_EQ(fast, std::vector<int64_t>(k, 0)) << "empty at " << pos;
      }
      pc.FillCounts(0, n, fast);
      ASSERT_EQ(fast, recount(0, n)) << "full range, k=" << k;
    }
  }
}

TEST(PrefixCountsTest, TotalCountsSumToLength) {
  Rng rng(99);
  Sequence s = GenerateNull(5, 128, rng);
  PrefixCounts pc(s);
  for (int64_t pos = 0; pos <= s.size(); ++pos) {
    int64_t total = 0;
    for (int c = 0; c < 5; ++c) total += pc.PrefixCount(c, pos);
    EXPECT_EQ(total, pos);
  }
}

TEST(PrefixCountsTest, EmptyRangeIsZero) {
  Sequence s = Sequence::FromSymbols(2, {1, 0, 1}).value();
  PrefixCounts pc(s);
  std::vector<int64_t> counts(2);
  pc.FillCounts(2, 2, counts);
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 0);
}

}  // namespace
}  // namespace seq
}  // namespace sigsub
