// Property tests for the fused X² range kernels (core/x2_kernel.h):
//
//   * every entry point (EvaluateBlocks, EvaluateCounts, EvaluateRange,
//     EvaluateEnds) is BIT-identical to ChiSquareContext::Evaluate over
//     the FillCounts scratch round-trip (same operation order);
//   * it agrees with a naive O(l) recount of the substring;
//   * the batched EvaluateEnds is bit-identical to the per-end function,
//     and grid EvaluateRect matches its one-shot counterpart;
//   * the SkipSolver block overload reproduces the span overload.

#include "core/x2_kernel.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "core/chain_cover.h"
#include "seq/generators.h"
#include "seq/model.h"
#include "seq/rng.h"
#include "seq/sequence.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

constexpr int kAlphabets[] = {2, 3, 4, 8, 26};

/// A non-uniform model with deterministic pseudo-random probabilities.
seq::MultinomialModel MakeModel(int k, uint64_t seed) {
  seq::Rng rng(seed);
  std::vector<double> probs(static_cast<size_t>(k));
  double total = 0.0;
  for (double& p : probs) {
    p = 0.05 + rng.NextDouble();
    total += p;
  }
  for (double& p : probs) p /= total;
  auto model = seq::MultinomialModel::Make(std::move(probs));
  SIGSUB_CHECK(model.ok());
  return std::move(model).value();
}

/// Deterministic query ranges over [0, n], biased toward short substrings
/// the way a skip scan is.
std::vector<std::pair<int64_t, int64_t>> MakeRanges(int64_t n, size_t count,
                                                    uint64_t seed) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  seq::Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    auto a = static_cast<int64_t>(rng.NextDouble() * static_cast<double>(n));
    auto b = static_cast<int64_t>(rng.NextDouble() * static_cast<double>(n));
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b + 1 > n ? n : b + 1);
  }
  return ranges;
}

/// O(l) recount straight off the symbols — independent of PrefixCounts.
double NaiveX2(const seq::Sequence& sequence, const ChiSquareContext& ctx,
               int64_t start, int64_t end) {
  std::vector<int64_t> counts(static_cast<size_t>(ctx.alphabet_size()), 0);
  for (int64_t i = start; i < end; ++i) {
    ++counts[sequence[i]];
  }
  return ctx.Evaluate(counts, end - start);
}

TEST(X2KernelTest, ScalarBitIdenticalToLegacyPair) {
  for (int k : {2, 3, 4, 5, 8, 26}) {
    seq::Rng rng(1000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 2048, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 7 * static_cast<uint64_t>(k)));
    X2Kernel kernel(ctx);
    std::vector<int64_t> scratch(static_cast<size_t>(k));
    const auto ranges = MakeRanges(s.size(), 4000, 99);
    for (const auto& [start, end] : ranges) {
      counts.FillCounts(start, end, scratch);
      const uint64_t legacy =
          std::bit_cast<uint64_t>(ctx.Evaluate(scratch, end - start));
      // Bit identity, not a tolerance: same loads, same operation order.
      ASSERT_EQ(legacy, std::bit_cast<uint64_t>(kernel.EvaluateRange(
                            counts, start, end)))
          << "k=" << k << " [" << start << "," << end << ")";
      ASSERT_EQ(legacy, std::bit_cast<uint64_t>(kernel.EvaluateBlocks(
                            counts.BlockAt(start), counts.BlockAt(end),
                            end - start)))
          << "k=" << k << " [" << start << "," << end << ")";
      ASSERT_EQ(legacy, std::bit_cast<uint64_t>(
                            kernel.EvaluateCounts(scratch.data(), end - start)))
          << "k=" << k << " [" << start << "," << end << ")";
    }
    // EvaluateEnds from two pinned starts over every range end (all >= 1),
    // so the k = 2 batched twin (four ends per vector) is covered too.
    std::vector<int64_t> ends;
    for (const auto& range : ranges) ends.push_back(range.second);
    std::vector<double> out(ends.size());
    for (int64_t start : {int64_t{0}, int64_t{1}}) {
      kernel.EvaluateEnds(counts, start, ends, out);
      for (size_t j = 0; j < ends.size(); ++j) {
        counts.FillCounts(start, ends[j], scratch);
        const double legacy = ctx.Evaluate(scratch, ends[j] - start);
        ASSERT_EQ(std::bit_cast<uint64_t>(legacy),
                  std::bit_cast<uint64_t>(out[j]))
            << "k=" << k << " [" << start << "," << ends[j] << ")";
      }
    }
  }
}

TEST(X2KernelTest, MatchesNaiveRecount) {
  for (int k : kAlphabets) {
    seq::Rng rng(2000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 512, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 11 * static_cast<uint64_t>(k)));
    X2Kernel kernel(ctx);
    for (const auto& [start, end] : MakeRanges(s.size(), 800, 17)) {
      EXPECT_X2_EQ(kernel.EvaluateRange(counts, start, end),
                   NaiveX2(s, ctx, start, end));
    }
  }
}

TEST(X2KernelTest, EvaluateEndsMatchesEvaluateRange) {
  for (int k : {2, 4, 26}) {
    seq::Rng rng(4000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 300, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 5 * static_cast<uint64_t>(k)));
    X2Kernel kernel(ctx);
    std::vector<int64_t> ends;
    for (int64_t e = 10; e <= s.size(); e += 7) ends.push_back(e);
    std::vector<double> out(ends.size());
    kernel.EvaluateEnds(counts, /*start=*/10, ends, out);
    for (size_t i = 0; i < ends.size(); ++i) {
      EXPECT_EQ(out[i], kernel.EvaluateRange(counts, 10, ends[i]));
    }
    EXPECT_EQ(out[0], 0.0);  // ends[0] == start.
  }
}

// EvaluateEnds runs four ends per AVX2 vector at k = 2 on an AVX2 CPU and
// the per-end loop elsewhere. Either way every
// value must equal the per-end function bit for bit, the 0–3 tail ends
// and the length-0 end included, for scattered and for consecutive ends.
TEST(X2KernelTest, BatchedFormsAreBitIdenticalToPerEnd) {
  for (int k : {2, 3, 4, 5, 8, 16}) {
    seq::Rng rng(6000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 200, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 7 * static_cast<uint64_t>(k)));
    X2Kernel kernel(ctx);
    std::vector<double> out(64);
    for (int64_t start : {0, 1, 37, 150, 200}) {
      for (int64_t count = 0; count <= 13; ++count) {
        // Scattered ends (start itself first), and consecutive ends from
        // start + 1 and from start + 6 as the blocked scan passes them.
        std::vector<std::vector<int64_t>> end_sets(3);
        for (int64_t j = 0; j < count; ++j) {
          end_sets[0].push_back(std::min<int64_t>(start + (j * 11) % 47, 200));
          end_sets[1].push_back(start + 1 + j);
          end_sets[2].push_back(start + 6 + j);
        }
        for (const std::vector<int64_t>& ends : end_sets) {
          if (!ends.empty() && ends.back() > s.size()) continue;
          kernel.EvaluateEnds(counts, start, ends, out);
          for (int64_t j = 0; j < count; ++j) {
            EXPECT_EQ(std::bit_cast<uint64_t>(out[j]),
                      std::bit_cast<uint64_t>(
                          kernel.EvaluateRange(counts, start, ends[j])))
                << "k=" << k << " start=" << start << " end=" << ends[j];
          }
        }
      }
    }
  }
}

TEST(X2KernelTest, EvaluateRectMatchesGridLegacyPair) {
  seq::Rng rng(77);
  auto model = seq::MultinomialModel::Uniform(4);
  seq::Grid grid = seq::Grid::GenerateNull(model, 12, 17, rng);
  seq::GridPrefixCounts counts(grid);
  ChiSquareContext ctx(model);
  X2Kernel kernel(ctx);
  std::vector<int64_t> scratch(4);
  for (int64_t r0 = 0; r0 < grid.rows(); r0 += 3) {
    for (int64_t r1 = r0 + 1; r1 <= grid.rows(); r1 += 2) {
      for (int64_t c0 = 0; c0 < grid.cols(); c0 += 3) {
        for (int64_t c1 = c0 + 1; c1 <= grid.cols(); c1 += 2) {
          counts.FillCounts(r0, r1, c0, c1, scratch);
          double legacy = ctx.Evaluate(scratch, (r1 - r0) * (c1 - c0));
          EXPECT_EQ(legacy, kernel.EvaluateRect(counts, r0, r1, c0, c1));
        }
      }
    }
  }
}

TEST(X2KernelTest, SkipSolverBlockOverloadMatchesSpanOverload) {
  for (int k : {2, 4, 8}) {
    seq::Rng rng(5000 + static_cast<uint64_t>(k));
    seq::Sequence s = seq::GenerateNull(k, 600, rng);
    seq::PrefixCounts counts(s);
    ChiSquareContext ctx(MakeModel(k, 3 * static_cast<uint64_t>(k)));
    SkipSolver solver(ctx);
    std::vector<int64_t> scratch(static_cast<size_t>(k));
    for (const auto& [start, end] : MakeRanges(s.size(), 500, 31)) {
      if (end == start) continue;
      int64_t l = end - start;
      counts.FillCounts(start, end, scratch);
      double x2 = ctx.Evaluate(scratch, l);
      for (double budget : {x2 - 1.0, x2, x2 + 1.0, x2 + 25.0}) {
        EXPECT_EQ(solver.MaxSafeExtension(scratch, l, x2, budget),
                  solver.MaxSafeExtension(counts.BlockAt(start),
                                          counts.BlockAt(end), l, x2,
                                          budget))
            << "k=" << k << " [" << start << "," << end << ") budget "
            << budget;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
