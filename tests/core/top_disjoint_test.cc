#include "core/top_disjoint.h"

#include <algorithm>
#include <cmath>

#include "core/mss.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

TEST(TopDisjointTest, ValidatesInput) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  TopDisjointOptions bad_t;
  bad_t.t = 0;
  EXPECT_TRUE(FindTopDisjoint(s, model, bad_t).status().IsInvalidArgument());
  TopDisjointOptions bad_len;
  bad_len.min_length = 0;
  EXPECT_TRUE(
      FindTopDisjoint(s, model, bad_len).status().IsInvalidArgument());
  seq::Sequence empty(2);
  EXPECT_TRUE(
      FindTopDisjoint(empty, model, {}).status().IsInvalidArgument());
}

TEST(TopDisjointTest, RejectsNaNMinChiSquare) {
  seq::Rng rng(1);
  seq::Sequence s = seq::GenerateNull(2, 10, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  TopDisjointOptions options;
  options.min_chi_square = std::nan("");
  EXPECT_TRUE(
      FindTopDisjoint(s, model, options).status().IsInvalidArgument());
}

TEST(TopDisjointTest, FirstResultIsTheMss) {
  seq::Rng rng(2);
  seq::Sequence s = seq::GenerateNull(2, 600, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  TopDisjointOptions options;
  options.t = 3;
  auto disjoint = FindTopDisjoint(s, model, options);
  auto mss = FindMss(s, model);
  ASSERT_TRUE(disjoint.ok());
  ASSERT_TRUE(mss.ok());
  ASSERT_FALSE(disjoint->empty());
  EXPECT_EQ((*disjoint)[0].start, mss->best.start);
  EXPECT_EQ((*disjoint)[0].end, mss->best.end);
}

TEST(TopDisjointTest, ResultsAreDisjointAndSorted) {
  seq::Rng rng(3);
  seq::Sequence s = seq::GenerateNull(3, 900, rng);
  auto model = seq::MultinomialModel::Uniform(3);
  TopDisjointOptions options;
  options.t = 8;
  auto result = FindTopDisjoint(s, model, options);
  ASSERT_TRUE(result.ok());
  const auto& subs = *result;
  for (size_t i = 1; i < subs.size(); ++i) {
    EXPECT_GE(subs[i - 1].chi_square, subs[i].chi_square) << i;
  }
  for (size_t i = 0; i < subs.size(); ++i) {
    for (size_t j = i + 1; j < subs.size(); ++j) {
      EXPECT_FALSE(Overlaps(subs[i], subs[j]))
          << "overlap between " << i << " and " << j;
    }
  }
}

TEST(TopDisjointTest, RecoversMultiplePlantedRegimes) {
  seq::Rng rng(4);
  auto s = seq::GenerateRegimes(2,
                                {{1000, {0.5, 0.5}},
                                 {150, {0.9, 0.1}},
                                 {1000, {0.5, 0.5}},
                                 {150, {0.1, 0.9}},
                                 {1000, {0.5, 0.5}}},
                                rng);
  ASSERT_TRUE(s.ok());
  auto model = seq::MultinomialModel::Uniform(2);
  TopDisjointOptions options;
  options.t = 2;
  options.min_length = 20;
  auto result = FindTopDisjoint(s.value(), model, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  // Each planted window [1000,1150) and [2150,2300) is hit by one result.
  auto overlap = [](const Substring& sub, int64_t lo, int64_t hi) {
    return std::min(sub.end, hi) - std::max(sub.start, lo);
  };
  int64_t hit_first = 0, hit_second = 0;
  for (const auto& sub : *result) {
    hit_first = std::max(hit_first, overlap(sub, 1000, 1150));
    hit_second = std::max(hit_second, overlap(sub, 2150, 2300));
  }
  EXPECT_GT(hit_first, 100);
  EXPECT_GT(hit_second, 100);
}

TEST(TopDisjointTest, MinChiSquareFilters) {
  seq::Rng rng(5);
  seq::Sequence s = seq::GenerateNull(2, 400, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  auto mss = FindMss(s, model);
  ASSERT_TRUE(mss.ok());
  TopDisjointOptions options;
  options.t = 10;
  options.min_chi_square = mss->best.chi_square + 1.0;  // Above the max.
  auto result = FindTopDisjoint(s, model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(TopDisjointTest, MinLengthIsRespected) {
  seq::Rng rng(6);
  seq::Sequence s = seq::GenerateNull(2, 500, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  TopDisjointOptions options;
  options.t = 5;
  options.min_length = 40;
  auto result = FindTopDisjoint(s, model, options);
  ASSERT_TRUE(result.ok());
  for (const auto& sub : *result) {
    EXPECT_GE(sub.length(), 40);
  }
}

TEST(TopDisjointTest, TCapsResultCount) {
  seq::Rng rng(7);
  seq::Sequence s = seq::GenerateNull(2, 300, rng);
  auto model = seq::MultinomialModel::Uniform(2);
  TopDisjointOptions options;
  options.t = 4;
  auto result = FindTopDisjoint(s, model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 4u);
}

}  // namespace
}  // namespace core
}  // namespace sigsub
