// Market regime mining (paper Section 7.5.2): find the statistically
// significant bull/bear stretches of a daily up/down return series.
//
// Uses the synthetic market simulator (stand-in for the paper's Dow/S&P/IBM
// downloads, which the repository does not ship) and reports periods the
// way the paper's Table 5 does: dates, X², and price change.

#include <cstdio>

#include "common/str_util.h"
#include "sigsub.h"

namespace {

void AnalyzeSecurity(const sigsub::io::MarketSeries& series) {
  using namespace sigsub;

  double p_up = series.EmpiricalUpRate();
  auto model = seq::MultinomialModel::Make({1.0 - p_up, p_up}).value();

  core::TopDisjointOptions options;
  options.t = 4;
  options.min_length = 10;
  options.min_chi_square = stats::ChiSquareThresholdForPValue(1e-4, 2);
  auto periods = core::FindTopDisjoint(series.updown(), model, options);
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return;
  }

  std::printf("\n%s (%lld trading days, empirical up ratio %.2f%%)\n",
              series.name().c_str(),
              static_cast<long long>(series.updown().size()),
              100.0 * p_up);
  io::TableWriter table({"Type", "Start", "End", "Days", "X2", "Change"});
  for (const auto& period : *periods) {
    double change = series.PriceChangeInRange(period.start, period.end);
    int64_t ups = series.UpDaysInRange(period.start, period.end);
    bool good = static_cast<double>(ups) / period.length() > p_up;
    table.AddRow({good ? "good" : "bad",
                  series.dates().date(period.start).ToString(),
                  series.dates().date(period.end - 1).ToString(),
                  std::to_string(period.length()),
                  StrFormat("%.2f", period.chi_square),
                  io::FormatSignedPercent(change)});
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace

int main() {
  AnalyzeSecurity(sigsub::io::MarketSeries::DowJones());
  AnalyzeSecurity(sigsub::io::MarketSeries::SP500());
  AnalyzeSecurity(sigsub::io::MarketSeries::Ibm());
  return 0;
}
