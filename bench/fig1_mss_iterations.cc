// Figure 1 (a/b): iterations of the MSS algorithm vs the trivial scan.
//
// (a) ln(iterations) vs ln(n) for k = 2: ours grows with slope ~1.5, the
//     trivial scan with slope 2.
// (b) the same sweep for k = 2, 3, 5, 10: alphabet size has no significant
//     effect on the iteration count.
//
// Exits nonzero unless the k = 2 slope lies in [1.35, 1.65] and the
// trivial scan's in [1.95, 2.05].

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"

int main() {
  using namespace sigsub;
  bench::PrintHeader(
      "Figure 1a/1b — iterations for finding the MSS",
      "null-model strings; iterations = substring ending positions "
      "examined");

  std::vector<int64_t> sizes = {512, 1024, 2048, 4096, 8192, 16384, 32768,
                                65536};
  if (bench::FastMode()) sizes = {512, 2048, 8192};

  // --- Figure 1a: ours vs trivial, k = 2. ---
  double ours_slope = 0.0;
  double trivial_slope = 0.0;
  {
    io::TableWriter table({"n", "ln n", "iter(ours)", "ln iter(ours)",
                           "iter(trivial)", "ln iter(trivial)"});
    std::vector<double> ns, iters;
    for (int64_t n : sizes) {
      // Average over a few seeds, like the paper's averaged runs.
      const int kTrials = 5;
      double total_iter = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        seq::Rng rng(1000 + 31 * trial + n);
        seq::Sequence s = seq::GenerateNull(2, n, rng);
        auto mss = core::FindMss(s, seq::MultinomialModel::Uniform(2));
        total_iter += static_cast<double>(mss->stats.positions_examined);
      }
      double iter = total_iter / kTrials;
      double trivial = static_cast<double>(core::TrivialScanPositions(n));
      table.AddRow({std::to_string(n), StrFormat("%.2f", std::log(n)),
                    StrFormat("%.0f", iter),
                    StrFormat("%.2f", std::log(iter)),
                    StrFormat("%.0f", trivial),
                    StrFormat("%.2f", std::log(trivial))});
      ns.push_back(static_cast<double>(n));
      iters.push_back(iter);
    }
    std::printf("\nFigure 1a (k = 2):\n%s", table.Render().c_str());
    ours_slope = bench::PrintLogLogSlope("ours, expect ~1.5", ns, iters);
    trivial_slope = bench::PrintLogLogSlope(
        "trivial, expect 2.0", ns,
        [&] {
          std::vector<double> t;
          for (double n : ns)
            t.push_back(static_cast<double>(
                core::TrivialScanPositions(static_cast<int64_t>(n))));
          return t;
        }());
  }

  // --- Figure 1b: varying alphabet size. ---
  {
    std::printf("\nFigure 1b (iterations vs n for several k):\n");
    io::TableWriter table({"n", "k=2", "k=3", "k=5", "k=10"});
    for (int64_t n : sizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (int k : {2, 3, 5, 10}) {
        seq::Rng rng(2000 + k + n);
        seq::Sequence s = seq::GenerateNull(k, n, rng);
        auto mss = core::FindMss(s, seq::MultinomialModel::Uniform(k));
        row.push_back(std::to_string(mss->stats.positions_examined));
      }
      table.AddRow(row);
    }
    std::printf("%s", table.Render().c_str());
    std::printf("(expected: columns nearly equal — k has no significant "
                "effect)\n");
  }

  // The paper's headline claim: the MSS scan examines O(n^{3/2})
  // positions, against the trivial scan's n(n+1)/2.
  const bool gate_ok = ours_slope >= 1.35 && ours_slope <= 1.65 &&
                       trivial_slope >= 1.95 && trivial_slope <= 2.05;
  std::printf("\ngate (k=2 slope in [1.35, 1.65], trivial slope in "
              "[1.95, 2.05]): %s\n",
              gate_ok ? "PASS" : "FAIL");
  return gate_ok ? 0 : 1;
}
