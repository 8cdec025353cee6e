// Differential suite for core::SkipSolver::MaxSafeExtension: both
// overloads must return exactly what the all-characters reference solver
// (tests/testing/skip_reference.h) returns, under uniform, grouped
// (several symbols sharing one probability) and all-distinct models, on
// random counts with l up to ~2³¹ and budgets below, at and above X²,
// budgets that put a root within 1e-9 of an integer, budgets whose root
// exceeds the 9e18 cap, and budgets at which a root formula switches
// branch.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/chain_cover.h"
#include "core/chi_square.h"
#include "gtest/gtest.h"
#include "seq/model.h"
#include "seq/rng.h"
#include "testing/skip_reference.h"

namespace sigsub {
namespace core {
namespace {

using ::sigsub::testing::BudgetWithRootAt;
using ::sigsub::testing::BudgetWithZeroSlope;
using ::sigsub::testing::NudgeUlps;
using ::sigsub::testing::ReferenceSkipSolver;

enum class Kind { kUniform, kGrouped, kDistinct };

struct ModelConfig {
  int k;
  Kind kind;
};

/// Grouped models: k=4 is the daemon workload's probs(0.3;0.2;0.2;0.3);
/// larger k interleave two (k < 8) or three weight classes, so the
/// members of a class are not adjacent symbols.
seq::MultinomialModel MakeModel(const ModelConfig& config) {
  switch (config.kind) {
    case Kind::kUniform:
      return seq::MultinomialModel::Uniform(config.k);
    case Kind::kDistinct:
      return seq::MultinomialModel::Harmonic(config.k);
    case Kind::kGrouped:
      break;
  }
  if (config.k == 4) {
    return seq::MultinomialModel::Make({0.3, 0.2, 0.2, 0.3}).value();
  }
  const int classes = config.k < 8 ? 2 : 3;
  std::vector<double> weights(config.k);
  double total = 0.0;
  for (int c = 0; c < config.k; ++c) {
    weights[c] = 1.0 + c % classes;
    total += weights[c];
  }
  for (double& w : weights) w /= total;
  return seq::MultinomialModel::Make(weights).value();
}

/// A length with a log-uniform magnitude in [1, 2³¹].
int64_t DrawLength(seq::Rng& rng) {
  const int bits = 1 + static_cast<int>(rng.NextBounded(31));
  return 1 + static_cast<int64_t>(rng.NextBounded(uint64_t{1} << bits));
}

/// Counts summing to l, in one of four shapes: a random split, a split
/// near the model's expectation, one dominating symbol, or a random split
/// with every count of a probability class tied (the sum then differs
/// from l, and is at least 1).
std::vector<int64_t> DrawCounts(const ChiSquareContext& context, int64_t l,
                                seq::Rng& rng) {
  const int k = context.alphabet_size();
  std::span<const double> probs = context.probs();
  std::vector<double> weights(k);
  const uint64_t shape = rng.NextBounded(4);
  for (int c = 0; c < k; ++c) {
    switch (shape) {
      case 1:
        weights[c] = probs[c] * (0.9 + 0.2 * rng.NextDouble());
        break;
      case 2:
        weights[c] = c == 0 ? 50.0 : rng.NextDouble();
        break;
      default:
        weights[c] = rng.NextDouble();
    }
  }
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<int64_t> counts(k);
  int64_t assigned = 0;
  for (int c = 0; c < k; ++c) {
    counts[c] = static_cast<int64_t>(static_cast<double>(l) * weights[c] /
                                     total);
    assigned += counts[c];
  }
  counts[rng.NextBounded(k)] += l - assigned;
  if (shape == 3) {
    // Tie every symbol to the first symbol of its class.
    for (int c = 0; c < k; ++c) {
      for (int d = 0; d < c; ++d) {
        if (probs[d] == probs[c]) {
          counts[c] = counts[d];
          break;
        }
      }
    }
    int64_t tied = 0;
    for (int64_t y : counts) tied += y;
    if (tied == 0) counts[0] = 1;
  }
  return counts;
}

class SkipSolverDifferentialTest
    : public ::testing::TestWithParam<ModelConfig> {};

TEST_P(SkipSolverDifferentialTest, MatchesAllCharacterReference) {
  const ModelConfig& config = GetParam();
  const ChiSquareContext context(MakeModel(config));
  const int k = context.alphabet_size();
  std::span<const double> probs = context.probs();
  const SkipSolver solver(context);
  const ReferenceSkipSolver reference(context);
  seq::Rng rng(77 + 10 * static_cast<uint64_t>(config.k) +
               static_cast<uint64_t>(config.kind));

  int64_t mismatches = 0;
  int64_t near_integer_roots = 0;
  int64_t capped_roots = 0;
  int64_t positive_skips = 0;
  std::vector<int64_t> start_block(k);
  std::vector<int64_t> end_block(k);
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<int64_t> counts = DrawCounts(context, DrawLength(rng), rng);
    int64_t l = 0;
    for (int64_t y : counts) l += y;
    const double x2 = context.Evaluate(counts, l);

    double budget = x2;  // Mode 1: at X².
    const uint64_t mode = rng.NextBounded(7);
    const int ulps = static_cast<int>(rng.NextBounded(5)) - 2;
    const int target = static_cast<int>(rng.NextBounded(k));
    if (mode == 0) {  // Below X²: no skip.
      budget = x2 - (std::fabs(x2) + 1.0) * rng.NextDouble() - 1e-9;
    } else if (mode == 2) {  // Above X² by 1e-6 .. 1e6.
      budget = x2 + std::pow(10.0, -6.0 + 12.0 * rng.NextDouble());
    } else if (mode == 3) {  // One symbol's root within ulps of an integer.
      const uint64_t m0 =
          1 + rng.NextBounded(uint64_t{1} << (1 + rng.NextBounded(40)));
      budget = NudgeUlps(
          BudgetWithRootAt(counts[target], probs[target], l, x2,
                           static_cast<long double>(m0)),
          ulps);
    } else if (mode == 4) {  // The same, with the root around the cap.
      const long double m0 =
          9.0e18L +
          static_cast<long double>(rng.NextBounded(uint64_t{1} << 24)) -
          static_cast<long double>(uint64_t{1} << 23);
      budget = NudgeUlps(
          BudgetWithRootAt(counts[target], probs[target], l, x2, m0), ulps);
    } else if (mode == 5) {  // Roots far above the cap, including +inf.
      const double huge[] = {1e20, 1e25, 1e100, 1e300,
                             std::numeric_limits<double>::infinity()};
      budget = huge[rng.NextBounded(5)];
    } else if (mode == 6) {
      // One symbol's linear coefficient near zero, where its root formula
      // switches branch.
      budget = NudgeUlps(
          BudgetWithZeroSlope(counts[target], probs[target], l), ulps);
    }

    double min_root = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      const double root = ReferenceSkipSolver::CharacterRoot(
          counts[c], probs[c], l, x2, budget);
      if (root < min_root) min_root = root;
    }
    if (min_root > 1.0 && min_root < 9.0e18 &&
        std::fabs(min_root - std::round(min_root)) < 1e-9) {
      ++near_integer_roots;
    }
    if (min_root > 9.0e18) ++capped_roots;

    const int64_t expected = reference.MaxSafeExtension(counts, l, x2, budget);
    if (expected > 0) ++positive_skips;
    const int64_t from_span = solver.MaxSafeExtension(counts, l, x2, budget);
    for (int c = 0; c < k; ++c) {
      start_block[c] = static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 40));
      end_block[c] = start_block[c] + counts[c];
    }
    const int64_t from_blocks = solver.MaxSafeExtension(
        start_block.data(), end_block.data(), l, x2, budget);
    if (from_span != expected || from_blocks != expected) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "iter=" << iter << " mode=" << mode << " l=" << l
                      << " x2=" << x2 << " budget=" << budget
                      << " reference=" << expected << " span=" << from_span
                      << " blocks=" << from_blocks;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The draws must reach the corners the suite claims to cover.
  EXPECT_GT(near_integer_roots, 100);
  EXPECT_GT(capped_roots, 1000);
  EXPECT_GT(positive_skips, 5000);
}

std::string ModelName(const ::testing::TestParamInfo<ModelConfig>& info) {
  const char* kind = info.param.kind == Kind::kUniform   ? "Uniform"
                     : info.param.kind == Kind::kGrouped ? "Grouped"
                                                         : "Distinct";
  return "K" + std::to_string(info.param.k) + kind;
}

// k=2 has no grouping besides the uniform model, whose two symbols form
// one class.
INSTANTIATE_TEST_SUITE_P(
    Models, SkipSolverDifferentialTest,
    ::testing::Values(ModelConfig{2, Kind::kUniform},
                      ModelConfig{2, Kind::kDistinct},
                      ModelConfig{3, Kind::kUniform},
                      ModelConfig{3, Kind::kGrouped},
                      ModelConfig{3, Kind::kDistinct},
                      ModelConfig{4, Kind::kUniform},
                      ModelConfig{4, Kind::kGrouped},
                      ModelConfig{4, Kind::kDistinct},
                      ModelConfig{8, Kind::kUniform},
                      ModelConfig{8, Kind::kGrouped},
                      ModelConfig{8, Kind::kDistinct},
                      ModelConfig{26, Kind::kUniform},
                      ModelConfig{26, Kind::kGrouped},
                      ModelConfig{26, Kind::kDistinct}),
    ModelName);

}  // namespace
}  // namespace core
}  // namespace sigsub
