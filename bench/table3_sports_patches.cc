// Table 3 (sports application, Section 7.5.1): the five most significant
// dominance patches of the rivalry series — dates, X², games, wins, win%.
//
// Data note: the paper mined the real Yankees–Red Sox
// results from baseball-reference.com; this repository substitutes a seeded
// simulator that plants eras mirroring the paper's Table 3. The planted
// ground truth is printed alongside so recovery can be verified.

#include <cstdio>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"

int main() {
  using namespace sigsub;
  bench::PrintHeader(
      "Table 3 — top-5 significant patches, team A vs team B",
      "seeded synthetic rivalry series (stand-in for Yankees vs Red Sox)");

  io::RivalrySeries series = io::RivalrySeries::Default();
  double p = series.EmpiricalWinRate();
  std::printf("series: %lld games, empirical win rate %.2f%% (paper: "
              "54.27%%)\n\n",
              static_cast<long long>(series.outcomes().size()), 100.0 * p);

  std::printf("planted ground truth:\n");
  {
    io::TableWriter truth({"Era", "Games", "WinProb"});
    for (const auto& era : series.config().eras) {
      truth.AddRow({era.label, std::to_string(era.num_games),
                    StrFormat("%.3f", era.win_prob)});
    }
    std::printf("%s\n", truth.Render().c_str());
  }

  auto model = seq::MultinomialModel::Make({1.0 - p, p}).value();
  core::TopDisjointOptions options;
  options.t = 5;
  options.min_length = 10;
  auto patches = core::FindTopDisjoint(series.outcomes(), model, options);
  if (!patches.ok()) {
    std::fprintf(stderr, "%s\n", patches.status().ToString().c_str());
    return 1;
  }

  io::TableWriter table(
      {"Start", "End", "X2 val", "Games", "Wins", "Win%"});
  for (const auto& patch : *patches) {
    int64_t wins = series.WinsInRange(patch.start, patch.end);
    table.AddRow({series.dates().date(patch.start).ToString(),
                  series.dates().date(patch.end - 1).ToString(),
                  StrFormat("%.2f", patch.chi_square),
                  std::to_string(patch.length()), std::to_string(wins),
                  io::FormatPercent(static_cast<double>(wins) /
                                    static_cast<double>(patch.length()))});
  }
  std::printf("top-5 recovered patches:\n%s", table.Render().c_str());
  std::printf("(paper shape: a ~200-game 1924-1933 era at ~76%% dominates; "
              "short Red-Sox-dominant patches follow)\n");
  return 0;
}
