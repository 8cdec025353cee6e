#include "core/chain_cover.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/skip_reference.h"
#include "testing/test_util.h"

namespace sigsub {
namespace core {
namespace {

using ::sigsub::testing::MaxExtensionChiSquare;

TEST(CoverChiSquareTest, MatchesDirectEvaluationOfPaddedCounts) {
  // X²_λ(c, x) computed by the closed form must equal evaluating the
  // padded count vector directly (paper Eq. 19 vs Eq. 5).
  ChiSquareContext ctx(seq::MultinomialModel::Make({0.2, 0.3, 0.5}).value());
  std::vector<int64_t> counts{4, 1, 3};
  int64_t l = 8;
  double x2 = ctx.Evaluate(counts, l);
  for (int c = 0; c < 3; ++c) {
    for (int64_t x : {1, 2, 5, 17}) {
      std::vector<int64_t> padded(counts);
      padded[c] += x;
      double direct = ctx.Evaluate(padded, l + x);
      double closed = CoverChiSquare(x2, l, counts[c], ctx.probs()[c],
                                     static_cast<double>(x));
      EXPECT_NEAR(closed, direct, 1e-9 * (1.0 + std::fabs(direct)))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(CoverChiSquareTest, ZeroExtensionIsIdentity) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  std::vector<int64_t> counts{6, 2};
  double x2 = ctx.Evaluate(counts, 8);
  EXPECT_NEAR(CoverChiSquare(x2, 8, counts[0], 0.5, 0.0), x2, 1e-12);
}

TEST(Lemma2Test, AppendingArgmaxCharacterIncreasesChiSquare) {
  // Lemma 2: appending the character maximizing Y_j/p_j strictly increases
  // X². Checked over random count vectors.
  seq::Rng rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    int k = 2 + static_cast<int>(rng.NextBounded(4));
    seq::MultinomialModel model =
        (iter % 2 == 0) ? seq::MultinomialModel::Uniform(k)
                        : seq::MultinomialModel::Harmonic(k);
    ChiSquareContext ctx(model);
    std::vector<int64_t> counts(k);
    int64_t l = 0;
    for (int c = 0; c < k; ++c) {
      counts[c] = static_cast<int64_t>(rng.NextBounded(20));
      l += counts[c];
    }
    if (l == 0) continue;
    // Pick j = argmax Y_j / p_j.
    int j = 0;
    double best_score = -1.0;
    for (int c = 0; c < k; ++c) {
      double score = static_cast<double>(counts[c]) / model.prob(c);
      if (score > best_score) {
        best_score = score;
        j = c;
      }
    }
    double before = ctx.Evaluate(counts, l);
    ++counts[j];
    double after = ctx.Evaluate(counts, l + 1);
    EXPECT_GT(after, before) << "iter=" << iter;
  }
}

TEST(Theorem1Test, CoverBoundDominatesAllExtensionsExhaustively) {
  // Theorem 1: for every extension length m <= l1, every possible extension
  // is bounded by max_c X²_λ(c, l1). Verified by exhaustive composition
  // enumeration for small k and l1.
  seq::Rng rng(13);
  for (int iter = 0; iter < 60; ++iter) {
    int k = 2 + static_cast<int>(rng.NextBounded(2));  // k in {2,3}.
    seq::MultinomialModel model =
        (iter % 2 == 0) ? seq::MultinomialModel::Uniform(k)
                        : seq::MultinomialModel::Geometric(k);
    ChiSquareContext ctx(model);
    std::vector<int64_t> counts(k);
    int64_t l = 0;
    for (int c = 0; c < k; ++c) {
      counts[c] = 1 + static_cast<int64_t>(rng.NextBounded(8));
      l += counts[c];
    }
    double x2 = ctx.Evaluate(counts, l);
    for (int64_t l1 : {1, 2, 3, 5}) {
      double bound = -1.0;
      for (int c = 0; c < k; ++c) {
        bound = std::max(bound, CoverChiSquare(x2, l, counts[c],
                                               model.prob(c),
                                               static_cast<double>(l1)));
      }
      for (int64_t m = 1; m <= l1; ++m) {
        double worst = MaxExtensionChiSquare(ctx, counts, l, m);
        EXPECT_LE(worst, bound + 1e-9)
            << "iter=" << iter << " l1=" << l1 << " m=" << m;
      }
    }
  }
}

TEST(SkipSolverTest, SkipIsSoundExhaustively) {
  // For random bases, every extension by 1..MaxSafeExtension must stay at
  // or below the budget (checked exhaustively over compositions). The
  // first 60 bases use a uniform or harmonic model at k in {2, 3}; the
  // rest cycle through models whose symbols share probabilities, where
  // the solver solves one quadratic per probability class, and an
  // all-distinct k=8.
  const std::vector<seq::MultinomialModel> more_models = {
      seq::MultinomialModel::Make({0.25, 0.5, 0.25}).value(),
      seq::MultinomialModel::Make({0.3, 0.2, 0.2, 0.3}).value(),
      seq::MultinomialModel::Make(
          {0.1, 0.15, 0.1, 0.15, 0.1, 0.15, 0.1, 0.15})
          .value(),
      seq::MultinomialModel::Harmonic(8)};
  seq::Rng rng(17);
  int64_t checked = 0;
  for (int iter = 0; iter < 60 + 100 * 4; ++iter) {
    int k = 2 + static_cast<int>(rng.NextBounded(2));
    seq::MultinomialModel model =
        (iter % 2 == 0) ? seq::MultinomialModel::Uniform(k)
                        : seq::MultinomialModel::Harmonic(k);
    if (iter >= 60) {
      model = more_models[iter % more_models.size()];
      k = model.alphabet_size();
    }
    ChiSquareContext ctx(model);
    SkipSolver solver(ctx);
    std::vector<int64_t> counts(k);
    int64_t l = 0;
    for (int c = 0; c < k; ++c) {
      counts[c] = static_cast<int64_t>(rng.NextBounded(6));
      l += counts[c];
    }
    if (l == 0) {
      counts[0] = 1;
      l = 1;
    }
    double x2 = ctx.Evaluate(counts, l);
    // The slack grows with k so that larger alphabets still get skips
    // long enough to check.
    double budget =
        x2 + static_cast<double>(rng.NextBounded(std::max(12, 4 * k)));
    int64_t m = solver.MaxSafeExtension(counts, l, x2, budget);
    ASSERT_GE(m, 0);
    int64_t check_up_to = std::min<int64_t>(m, 7);  // Exhaustive cost cap.
    for (int64_t ext = 1; ext <= check_up_to; ++ext) {
      ++checked;
      double worst = MaxExtensionChiSquare(ctx, counts, l, ext);
      EXPECT_LE(worst, budget + 1e-9)
          << "iter=" << iter << " ext=" << ext << " m=" << m;
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(SkipSolverTest, ZeroWhenOverBudget) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  std::vector<int64_t> counts{9, 1};
  double x2 = ctx.Evaluate(counts, 10);
  EXPECT_EQ(solver.MaxSafeExtension(counts, 10, x2, x2 - 1.0), 0);
}

TEST(SkipSolverTest, ZeroForNanBudget) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  const std::vector<int64_t> counts{5, 5};
  const std::vector<int64_t> start_block{3, 7};
  const std::vector<int64_t> end_block{8, 12};
  const double x2 = ctx.Evaluate(counts, 10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(solver.MaxSafeExtension(counts, 10, x2, nan), 0);
  EXPECT_EQ(solver.MaxSafeExtension(start_block.data(), end_block.data(), 10,
                                    x2, nan),
            0);
}

TEST(SkipSolverTest, GrowsWithBudget) {
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  std::vector<int64_t> counts{5, 5};
  double x2 = ctx.Evaluate(counts, 10);  // 0: perfectly balanced.
  int64_t prev = -1;
  for (double budget : {1.0, 4.0, 16.0, 64.0}) {
    int64_t m = solver.MaxSafeExtension(counts, 10, x2, budget);
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST(SkipSolverTest, SkipScalesLikeSqrtLForNullCounts) {
  // Lemma 5's intuition: for balanced counts and budget ~ ln l, the skip
  // is Θ(sqrt(l · ln l)); check the sqrt scaling across two decades.
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  auto skip_at = [&](int64_t l) {
    std::vector<int64_t> counts{l / 2, l / 2};
    double x2 = ctx.Evaluate(counts, l);
    return static_cast<double>(
        solver.MaxSafeExtension(counts, l, x2, std::log(l)));
  };
  double s100 = skip_at(100);
  double s10000 = skip_at(10000);
  // sqrt scaling with the log factor: ratio should be ~10·sqrt(ln10k/ln100).
  EXPECT_GT(s10000 / s100, 8.0);
  EXPECT_LT(s10000 / s100, 25.0);
}

TEST(RootClearsCandidateTest, NeverContradictsLongDoubleCheck) {
  // Whenever the root settles a candidate, the long double evaluation must
  // put it at or below zero too. Half the budgets put the root on an
  // integer (nudged by a few ulps), where the candidate sits at the root
  // and the check must give up; the other half are generic, and there the
  // root must settle its own floor almost always.
  seq::Rng rng(23);
  const double probs[] = {0.25, 0.2, 0.3, 0.5, 1.0 / 3.0, 1.0 / 7.0, 0.9375};
  int64_t claimed = 0, generic = 0, generic_settled = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const double p = probs[iter % 7];
    const int64_t l = 1 + static_cast<int64_t>(rng.NextBounded(
                              iter % 3 == 0 ? uint64_t{1} << 30 : 5000));
    const int64_t y = static_cast<int64_t>(rng.NextBounded(l + 1));
    const double x2 = rng.NextDouble() * 40.0;
    const bool on_integer = iter % 2 == 0;
    const int64_t m0 = 1 + static_cast<int64_t>(rng.NextBounded(3000));
    const double budget =
        on_integer ? ::sigsub::testing::NudgeUlps(
                         ::sigsub::testing::BudgetWithRootAt(y, p, l, x2, m0),
                         static_cast<int>(rng.NextBounded(9)) - 4)
                   : x2 + rng.NextDouble() * 60.0;
    if (!(x2 <= budget)) continue;
    const double root = internal::CoverRoot(y, p, l, x2, budget);
    if (!(root >= 1.0) || root > 0x1p31) continue;
    const int64_t floor_root = static_cast<int64_t>(root);
    for (int64_t x : {floor_root - 1, floor_root, floor_root + 1}) {
      if (x < 1) continue;
      if (internal::RootClearsCandidate(y, p, l, budget, root, x)) {
        ++claimed;
        ASSERT_LE(internal::CoverQuadraticAt(y, p, l, x2, budget, x), 0.0L)
            << "y=" << y << " p=" << p << " l=" << l << " x2=" << x2
            << " budget=" << budget << " x=" << x;
      }
    }
    if (!on_integer) {
      ++generic;
      generic_settled +=
          internal::RootClearsCandidate(y, p, l, budget, root, floor_root);
    }
  }
  EXPECT_GT(claimed, 10000);
  EXPECT_GT(generic, 5000);
  EXPECT_GT(generic_settled, generic * 99 / 100);
}

TEST(RootClearsCandidateTest, GivesUpOutsideItsBounds) {
  // y=50, p=0.25, l=100, X²=1, B=30: the root is about 13.73.
  const double root = internal::CoverRoot(50, 0.25, 100, 1.0, 30.0);
  ASSERT_GT(root, 13.0);
  ASSERT_LT(root, 14.0);
  EXPECT_TRUE(internal::RootClearsCandidate(50, 0.25, 100, 30.0, root, 13));
  EXPECT_TRUE(internal::RootClearsCandidate(50, 0.25, 100, 30.0, root, 1));
  // A candidate at or past the root, or within 2⁻¹² below it.
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, 100, 30.0, root, 14));
  EXPECT_FALSE(
      internal::RootClearsCandidate(50, 0.25, 100, 30.0, 13.0 + 0x1p-13, 13));
  // Operands past the bounds the error analysis covers.
  const int64_t big = (int64_t{1} << 30) + 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(internal::RootClearsCandidate(big, 0.25, big, 30.0, root, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(-1, 0.25, 100, 30.0, root, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, big, 30.0, root, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.95, 100, 30.0, root, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, 100, 0x1p21, root, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, 100, nan, root, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, 100, 30.0, 0x1p31, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, 100, 30.0, nan, 13));
  EXPECT_FALSE(internal::RootClearsCandidate(50, 0.25, 100, 30.0, root, -1));
}

TEST(PaperSingleCharacterSkipTest, NeverExceedsExactSolver) {
  // The paper's one-character rule with x≈0 must be no more aggressive
  // than the exact min-over-characters skip on uniform models (where the
  // argmax is x-independent).
  seq::Rng rng(19);
  ChiSquareContext ctx(seq::MultinomialModel::Uniform(2));
  SkipSolver solver(ctx);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<int64_t> counts{
        static_cast<int64_t>(rng.NextBounded(50)),
        static_cast<int64_t>(rng.NextBounded(50))};
    int64_t l = counts[0] + counts[1];
    if (l == 0) continue;
    double x2 = ctx.Evaluate(counts, l);
    double budget = x2 + 1.0 + static_cast<double>(rng.NextBounded(20));
    int64_t exact = solver.MaxSafeExtension(counts, l, x2, budget);
    int64_t paper = PaperSingleCharacterSkip(ctx, counts, l, x2, budget);
    EXPECT_LE(paper, exact + 1) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace core
}  // namespace sigsub
