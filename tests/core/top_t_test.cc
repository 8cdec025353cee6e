#include "core/top_t.h"

#include <tuple>

#include "core/mss.h"
#include "core/naive.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

using ::sigsub::testing::Family;
using ::sigsub::testing::FamilyName;
using ::sigsub::testing::GenerateFamily;
using ::sigsub::testing::ScoringModel;

TEST(TopTCollectorTest, KeepsBestT) {
  TopTCollector c(3);
  EXPECT_LT(c.budget(), 0.0);  // Filling: every candidate is accepted.
  EXPECT_TRUE(c.Offer({0, 1, 5.0}));
  EXPECT_TRUE(c.Offer({1, 2, 3.0}));
  EXPECT_TRUE(c.Offer({2, 3, 8.0}));
  EXPECT_DOUBLE_EQ(c.budget(), 3.0);
  EXPECT_FALSE(c.Offer({3, 4, 2.0}));  // Below budget.
  EXPECT_FALSE(c.Offer({3, 4, 3.0}));  // Ties do not displace.
  EXPECT_TRUE(c.Offer({3, 4, 4.0}));
  EXPECT_DOUBLE_EQ(c.budget(), 4.0);
  auto sorted = c.TakeSortedDescending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].chi_square, 8.0);
  EXPECT_DOUBLE_EQ(sorted[1].chi_square, 5.0);
  EXPECT_DOUBLE_EQ(sorted[2].chi_square, 4.0);
}

TEST(TopTCollectorTest, AcceptsAnyCandidateWhileBelowCapacity) {
  // Below capacity every candidate is among the best t seen so far, so
  // even X² = 0 (a perfectly balanced substring) must be kept. The old
  // behaviour — rejecting candidates at or below the budget while
  // filling — returned an empty list on all-zero sequences.
  TopTCollector c(2);
  EXPECT_LT(c.budget(), 0.0);  // Filling: nothing may be skipped.
  EXPECT_TRUE(c.Offer({0, 1, 0.0}));
  EXPECT_TRUE(c.Offer({1, 2, 0.0}));
  EXPECT_DOUBLE_EQ(c.budget(), 0.0);  // Full: now ties are rejected.
  EXPECT_FALSE(c.Offer({2, 3, 0.0}));
  EXPECT_TRUE(c.Offer({2, 3, 0.5}));
  auto sorted = c.TakeSortedDescending();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_DOUBLE_EQ(sorted[0].chi_square, 0.5);
  EXPECT_DOUBLE_EQ(sorted[1].chi_square, 0.0);
}

TEST(FindTopTTest, ValidatesInput) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  EXPECT_TRUE(FindTopT(s, model, 0).status().IsInvalidArgument());
  const Status too_many = FindTopT(s, model, kMaxTopT + 1).status();
  EXPECT_TRUE(too_many.IsInvalidArgument());
  EXPECT_NE(too_many.message().find("t must be in [1, 1048576]"),
            std::string::npos)
      << too_many.message();
  seq::Sequence empty(2);
  EXPECT_TRUE(FindTopT(empty, model, 3).status().IsInvalidArgument());
}

TEST(FindTopTTest, TopOneEqualsMss) {
  seq::Rng rng(21);
  seq::Sequence s = seq::GenerateNull(3, 800, rng);
  auto model = seq::MultinomialModel::Uniform(3);
  auto top = FindTopT(s, model, 1);
  auto mss = FindMss(s, model);
  ASSERT_TRUE(top.ok());
  ASSERT_TRUE(mss.ok());
  ASSERT_EQ(top->top.size(), 1u);
  EXPECT_X2_EQ(top->top[0].chi_square, mss->best.chi_square);
}

TEST(FindTopTTest, ResultsAreSortedAndDistinct) {
  seq::Rng rng(22);
  seq::Sequence s = seq::GenerateNull(2, 500, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto top = FindTopT(s, model, 25);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->top.size(), 25u);
  for (size_t i = 1; i < top->top.size(); ++i) {
    EXPECT_GE(top->top[i - 1].chi_square, top->top[i].chi_square);
  }
  // All (start, end) pairs distinct.
  for (size_t i = 0; i < top->top.size(); ++i) {
    for (size_t j = i + 1; j < top->top.size(); ++j) {
      EXPECT_FALSE(top->top[i].start == top->top[j].start &&
                   top->top[i].end == top->top[j].end)
          << i << "," << j;
    }
  }
}

TEST(FindTopTTest, TLargerThanSubstringCount) {
  auto model = seq::MultinomialModel::Uniform(2);
  seq::Sequence s = seq::Sequence::FromSymbols(2, {0, 1, 0}).value();
  auto top = FindTopT(s, model, 100);
  ASSERT_TRUE(top.ok());
  // All 6 substrings are returned, including the balanced zero-scorers.
  EXPECT_EQ(top->top.size(), 6u);
  for (const auto& sub : top->top) EXPECT_GE(sub.chi_square, 0.0);
}

TEST(FindTopTTest, ReturnsExactlyTOnBalancedSequence) {
  // Regression: an alternating sequence has many perfectly balanced
  // (X² = 0) substrings; the heap must still fill to exactly t instead
  // of excluding candidates that tie the budget while it is filling.
  auto model = seq::MultinomialModel::Uniform(2);
  std::vector<uint8_t> symbols;
  for (int i = 0; i < 24; ++i) symbols.push_back(i % 2);
  seq::Sequence s = seq::Sequence::FromSymbols(2, symbols).value();
  for (int64_t t : {1, 5, 50, 200}) {
    auto fast = FindTopT(s, model, t);
    auto slow = NaiveFindTopT(s, model, t);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    // 24·25/2 = 300 substrings total, so every t here must be hit exactly.
    EXPECT_EQ(fast->top.size(), static_cast<size_t>(t)) << "t=" << t;
    ASSERT_EQ(slow->top.size(), static_cast<size_t>(t)) << "t=" << t;
    for (size_t i = 0; i < fast->top.size(); ++i) {
      EXPECT_X2_EQ(fast->top[i].chi_square, slow->top[i].chi_square)
          << "t=" << t << " rank " << i;
    }
  }
  // Rank 0 is the naive-MSS maximum.
  auto mss = NaiveFindMss(s, model);
  ASSERT_TRUE(mss.ok());
  EXPECT_X2_EQ(FindTopT(s, model, 3)->top[0].chi_square,
               mss->best.chi_square);
}

class TopTEquivalence
    : public ::testing::TestWithParam<std::tuple<int64_t, int, int64_t>> {};

TEST_P(TopTEquivalence, FastMatchesNaiveValues) {
  auto [n, k, t] = GetParam();
  seq::Rng rng(static_cast<uint64_t>(n * 31 + k * 7 + t));
  seq::Sequence s = seq::GenerateNull(k, n, rng);
  auto model = seq::MultinomialModel::Uniform(k);
  auto fast = FindTopT(s, model, t);
  auto slow = NaiveFindTopT(s, model, t);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(fast->top.size(), slow->top.size()) << "n=" << n << " t=" << t;
  for (size_t i = 0; i < fast->top.size(); ++i) {
    EXPECT_X2_EQ(fast->top[i].chi_square, slow->top[i].chi_square)
        << "rank " << i << " n=" << n << " k=" << k << " t=" << t;
  }
  EXPECT_LE(fast->stats.positions_examined, slow->stats.positions_examined);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopTEquivalence,
    ::testing::Combine(::testing::Values<int64_t>(5, 50, 300, 900),
                       ::testing::Values(2, 4),
                       ::testing::Values<int64_t>(1, 2, 10, 100)),
    [](const ::testing::TestParamInfo<TopTEquivalence::ParamType>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST(TopTEquivalenceFamilies, MatchesNaiveOnNonNullStrings) {
  for (Family family : {Family::kGeometric, Family::kMarkov}) {
    seq::Rng rng(777 + static_cast<int>(family));
    seq::Sequence s = GenerateFamily(family, 3, 400, rng);
    seq::MultinomialModel model = ScoringModel(family, 3);
    auto fast = FindTopT(s, model, 20);
    auto slow = NaiveFindTopT(s, model, 20);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast->top.size(), slow->top.size()) << FamilyName(family);
    for (size_t i = 0; i < fast->top.size(); ++i) {
      EXPECT_X2_EQ(fast->top[i].chi_square, slow->top[i].chi_square)
          << FamilyName(family) << " rank " << i;
    }
  }
}

TEST(FindTopTTest, BudgetTighteningSkipsLessThanMss) {
  // With larger t the skip budget is smaller, so more positions must be
  // examined than the plain MSS scan.
  seq::Rng rng(33);
  seq::Sequence s = seq::GenerateNull(2, 4000, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto top1 = FindTopT(s, model, 1);
  auto top100 = FindTopT(s, model, 100);
  ASSERT_TRUE(top1.ok());
  ASSERT_TRUE(top100.ok());
  EXPECT_GE(top100->stats.positions_examined,
            top1->stats.positions_examined);
}

}  // namespace
}  // namespace core
}  // namespace sigsub
