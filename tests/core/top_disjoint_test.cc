#include "core/top_disjoint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/mss.h"
#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/disjoint_reference.h"
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

/// Records for the differential test: null and regime strings, and three
/// tie makers — one repeated symbol, a period-2 string and a random block
/// tiled three times — where many segments share one X² bit for bit.
std::vector<seq::Sequence> DifferentialRecords(int k, uint64_t seed) {
  seq::Rng rng(seed);
  std::vector<seq::Sequence> records;
  for (int64_t n : {1, 2, 7, 60, 240}) {
    records.push_back(seq::GenerateNull(k, n, rng));
  }
  std::vector<double> skewed(k, 0.4 / (k - 1));
  skewed[0] = 0.6;
  auto regimes = seq::GenerateRegimes(
      k, {{80, std::vector<double>(k, 1.0 / k)}, {30, skewed},
          {80, std::vector<double>(k, 1.0 / k)}},
      rng);
  SIGSUB_CHECK(regimes.ok());
  records.push_back(std::move(regimes).value());
  seq::Sequence constant(k);
  seq::Sequence periodic(k);
  seq::Sequence tiled(k);
  for (int64_t i = 0; i < 90; ++i) {
    constant.Append(0);
    periodic.Append(static_cast<uint8_t>(i % 2));
  }
  const seq::Sequence block = seq::GenerateNull(k, 40, rng);
  for (int copy = 0; copy < 3; ++copy) {
    for (int64_t i = 0; i < block.size(); ++i) tiled.Append(block[i]);
  }
  records.push_back(std::move(constant));
  records.push_back(std::move(periodic));
  records.push_back(std::move(tiled));
  return records;
}

std::string Describe(const std::vector<Substring>& subs) {
  std::ostringstream text;
  text.precision(17);
  for (const Substring& s : subs) {
    text << "[" << s.start << "," << s.end << ") " << s.chi_square << "; ";
  }
  return text.str();
}

// The production kernel answers right children from the parent's scan;
// the reference scans every leftover segment. They must agree on every
// pick, its X² bit for bit and its place among equal-X² ties.
TEST(TopDisjointTest, MatchesReferenceBitForBit) {
  int64_t cases = 0;
  for (int k : {2, 4}) {
    const seq::MultinomialModel grouped =
        k == 2 ? seq::MultinomialModel::Make({0.3, 0.7}).value()
               : seq::MultinomialModel::Make({0.3, 0.2, 0.2, 0.3}).value();
    for (const seq::MultinomialModel& model :
         {seq::MultinomialModel::Uniform(k), grouped,
          seq::MultinomialModel::Harmonic(k)}) {
      ChiSquareContext context(model);
      for (const seq::Sequence& record : DifferentialRecords(k, 90 + k)) {
        const int64_t n = record.size();
        seq::PrefixCounts counts(record);
        for (int64_t min_length :
             {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{8}, n / 3, n / 2,
              n - 1, n}) {
          if (min_length < 1) continue;
          for (double min_x2 :
               {0.0, 5.0, 12.0, std::numeric_limits<double>::max()}) {
            for (int64_t t = 1; t <= 6; ++t) {
              TopDisjointOptions options{
                  .t = t, .min_length = min_length, .min_chi_square = min_x2};
              const std::vector<Substring> got =
                  FindTopDisjoint(counts, context, options);
              const std::vector<Substring> want =
                  ::sigsub::testing::ReferenceFindTopDisjoint(counts, context,
                                                              options);
              ++cases;
              bool same = got.size() == want.size();
              for (size_t i = 0; same && i < got.size(); ++i) {
                same = got[i].start == want[i].start &&
                       got[i].end == want[i].end &&
                       std::bit_cast<uint64_t>(got[i].chi_square) ==
                           std::bit_cast<uint64_t>(want[i].chi_square);
              }
              ASSERT_TRUE(same)
                  << "k=" << k << " n=" << n << " t=" << t
                  << " min_length=" << min_length << " min_x2=" << min_x2
                  << "\n got: " << Describe(got)
                  << "\nwant: " << Describe(want);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 5000);
}

// A longer record takes the kernel deep into inherited trails: right
// children of right children, many levels down.
// Long records: a null one, and a constant one, where the running best
// changes on every row, so each trail is as long as its segment.
TEST(TopDisjointTest, MatchesReferenceOnLongRecords) {
  for (int k : {2, 4}) {
    seq::Rng rng(700 + static_cast<uint64_t>(k));
    std::vector<seq::Sequence> records;
    records.push_back(seq::GenerateNull(k, 3000, rng));
    seq::Sequence constant(k);
    for (int i = 0; i < 3000; ++i) constant.Append(0);
    records.push_back(std::move(constant));
    ChiSquareContext context(seq::MultinomialModel::Uniform(k));
    for (size_t r = 0; r < records.size(); ++r) {
      seq::PrefixCounts counts(records[r]);
      for (int64_t min_length : {1, 8, 50}) {
        TopDisjointOptions options{
            .t = 40, .min_length = min_length, .min_chi_square = 0.0};
        const std::vector<Substring> got =
            FindTopDisjoint(counts, context, options);
        const std::vector<Substring> want =
            ::sigsub::testing::ReferenceFindTopDisjoint(counts, context,
                                                        options);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k << " record=" << r;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].start, want[i].start)
              << "k=" << k << " record=" << r << " i=" << i;
          EXPECT_EQ(got[i].end, want[i].end)
              << "k=" << k << " record=" << r << " i=" << i;
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i].chi_square),
                    std::bit_cast<uint64_t>(want[i].chi_square))
              << "k=" << k << " record=" << r << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
