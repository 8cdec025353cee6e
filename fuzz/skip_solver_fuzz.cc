// libFuzzer harness for the chain-cover skip: a differential check of
// core::SkipSolver::MaxSafeExtension against the all-characters reference
// solver (tests/testing/skip_reference.h), plus a soundness check against
// brute force. The input decodes to a model, a count vector and a budget:
//
//   byte 0      alphabet size k = 2 + b % 25
//   byte 1      g = 1 + b % k probability classes; symbol c is in class
//               (c + b / k) % g, so classes interleave
//   byte 2      class j has weight 1 + j·(1 + b % 8); p_c = w_c / Σ w
//   byte 3      l = 1 + (bytes 4..7 as a little-endian u32) mod 2^(b % 32)
//   bytes 4..7  see byte 3
//   byte 8      budget mode, b % 7:
//                 0  below X² by (u / 2^64)·(X² + 1)
//                 1  at X²
//                 2  above X² by 10^(u % 25 − 12)
//                 3  symbol s's root on the integer 1 + u % 2^40
//                 4  symbol s's root on 9e18 + (u % 2^24) − 2^23
//                 5  1e20, 1e300, +inf or NaN by u % 4
//                 6  symbol s's linear coefficient at zero
//               then, for modes 3, 4 and 6, the budget moves by
//               (b >> 4) % 5 − 2 ulps
//   byte 9      s = b % k, the symbol modes 3, 4 and 6 aim at
//   bytes 10..17  u, a little-endian u64
//   then        one weight byte per symbol (missing bytes weigh 1); Y_c is
//               l·w_c / Σ w rounded down, symbol 0 takes the remainder
//
// Checked on every input:
//
//   both MaxSafeExtension overloads == the reference, bit for bit
//   for a NaN budget, that skip is 0
//   for a finite budget, every extension by 1..min(skip, 7) symbols has
//   X² <= budget (all compositions, up to 5000 per length)
//
// Built behind -DSIGSUB_FUZZERS=ON: with clang this links libFuzzer
// (-fsanitize=fuzzer); elsewhere fuzz/standalone_driver.cc replays the
// committed corpus (fuzz/corpus/skip_solver) as a ctest regression.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "core/chain_cover.h"
#include "core/chi_square.h"
#include "testing/skip_reference.h"

namespace core = sigsub::core;
namespace testing = sigsub::testing;

namespace {

uint64_t ReadLittleEndian(const uint8_t* data, int bytes) {
  uint64_t value = 0;
  for (int i = bytes - 1; i >= 0; --i) value = (value << 8) | data[i];
  return value;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 18) return 0;
  const int k = 2 + data[0] % 25;
  const int classes = 1 + data[1] % k;
  const int shift = data[1] / k;
  const int step = 1 + data[2] % 8;
  std::vector<double> probs(k);
  double total_weight = 0.0;
  for (int c = 0; c < k; ++c) {
    probs[c] = 1.0 + ((c + shift) % classes) * step;
    total_weight += probs[c];
  }
  for (double& p : probs) p /= total_weight;
  auto context = core::ChiSquareContext::Make(probs);
  SIGSUB_CHECK(context.ok());

  const int bits = data[3] % 32;
  const int64_t l =
      1 + static_cast<int64_t>(ReadLittleEndian(data + 4, 4) &
                               ((uint64_t{1} << bits) - 1));
  std::vector<int64_t> counts(k);
  double count_weight = 0.0;
  for (int c = 0; c < k; ++c) {
    count_weight += 18 + c < static_cast<int>(size) ? data[18 + c] : 1;
  }
  int64_t assigned = 0;
  for (int c = 0; c < k && count_weight > 0.0; ++c) {
    const double w = 18 + c < static_cast<int>(size) ? data[18 + c] : 1;
    counts[c] = static_cast<int64_t>(static_cast<double>(l) * w / count_weight);
    assigned += counts[c];
  }
  counts[0] += l - assigned;
  const double x2 = context->Evaluate(counts, l);

  const int mode = data[8] % 7;
  const int ulps = (data[8] >> 4) % 5 - 2;
  const int s = data[9] % k;
  const uint64_t u = ReadLittleEndian(data + 10, 8);
  double budget = x2;
  switch (mode) {
    case 0:
      budget = x2 - std::ldexp(static_cast<double>(u), -64) * (x2 + 1.0);
      break;
    case 2:
      budget = x2 + std::pow(10.0, static_cast<double>(u % 25) - 12.0);
      break;
    case 3:
      budget = testing::NudgeUlps(
          testing::BudgetWithRootAt(
              counts[s], probs[s], l, x2,
              static_cast<long double>(1 + u % (uint64_t{1} << 40))),
          ulps);
      break;
    case 4:
      budget = testing::NudgeUlps(
          testing::BudgetWithRootAt(
              counts[s], probs[s], l, x2,
              9.0e18L + static_cast<long double>(u % (uint64_t{1} << 24)) -
                  static_cast<long double>(uint64_t{1} << 23)),
          ulps);
      break;
    case 5: {
      const double huge[] = {1e20, 1e300,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
      budget = huge[u % 4];
      break;
    }
    case 6:
      budget = testing::NudgeUlps(
          testing::BudgetWithZeroSlope(counts[s], probs[s], l), ulps);
      break;
    default:
      break;
  }

  const core::SkipSolver solver(*context);
  const int64_t want =
      testing::ReferenceSkipSolver(*context).MaxSafeExtension(counts, l, x2,
                                                              budget);
  SIGSUB_CHECK(solver.MaxSafeExtension(counts, l, x2, budget) == want);
  std::vector<int64_t> start_block(k);
  std::vector<int64_t> end_block(k);
  for (int c = 0; c < k; ++c) {
    start_block[c] = static_cast<int64_t>(u % 1000003) * (c + 1);
    end_block[c] = start_block[c] + counts[c];
  }
  SIGSUB_CHECK(solver.MaxSafeExtension(start_block.data(), end_block.data(),
                                       l, x2, budget) == want);
  SIGSUB_CHECK(!std::isnan(budget) || want == 0);

  if (!std::isfinite(budget)) return 0;
  // Evaluate's rounding grows with l; the bound itself holds exactly.
  const double tolerance =
      1e-9 * (1.0 + std::fabs(budget)) + 1e-12 * static_cast<double>(l);
  for (int64_t ext = 1; ext <= std::min<int64_t>(want, 7) &&
                        testing::CompositionCount(k, ext, 5001) <= 5000;
       ++ext) {
    SIGSUB_CHECK(testing::MaxExtensionChiSquare(*context, counts, l, ext) <=
                 budget + tolerance);
  }
  return 0;
}
