// Table 5 (stock application, Section 7.5.2): significant good and bad
// periods for the three securities — dates and price change.
//
// Data note: the paper used daily closes from
// finance.yahoo.com binarized to up/down; this repository substitutes
// seeded regime-switching simulators with the paper's series lengths and
// planted episodes shaped like the ones it reports. The "Change" column is
// reconstructed from the constant-daily-move price model.

#include <cstdio>

#include "common/harness.h"
#include "io/table_writer.h"
#include "sigsub.h"

namespace {

using namespace sigsub;

void Analyze(const io::MarketSeries& series, io::TableWriter& table) {
  double p = series.EmpiricalUpRate();
  auto model = seq::MultinomialModel::Make({1.0 - p, p}).value();
  core::TopDisjointOptions options;
  options.t = 4;
  options.min_length = 10;
  options.min_chi_square = stats::ChiSquareThresholdForPValue(1e-3, 2);
  auto periods = core::FindTopDisjoint(series.updown(), model, options);
  if (!periods.ok()) {
    std::fprintf(stderr, "%s\n", periods.status().ToString().c_str());
    return;
  }
  for (const auto& period : *periods) {
    int64_t ups = series.UpDaysInRange(period.start, period.end);
    bool good =
        static_cast<double>(ups) / static_cast<double>(period.length()) > p;
    table.AddRow({good ? "Good" : "Bad", series.name(),
                  series.dates().date(period.start).ToString(),
                  series.dates().date(period.end - 1).ToString(),
                  StrFormat("%.2f", period.chi_square),
                  io::FormatSignedPercent(
                      series.PriceChangeInRange(period.start, period.end))});
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table 5 — significant periods for the securities",
      "seeded synthetic stand-ins for Dow Jones / S&P 500 / IBM");

  io::TableWriter table(
      {"Periods", "Security", "Start", "End", "X2", "Change"});
  Analyze(io::MarketSeries::DowJones(), table);
  Analyze(io::MarketSeries::SP500(), table);
  Analyze(io::MarketSeries::Ibm(), table);
  std::printf("%s", table.Render().c_str());

  std::printf("\nplanted ground truth:\n");
  for (const auto& series :
       {io::MarketSeries::DowJones(), io::MarketSeries::SP500(),
        io::MarketSeries::Ibm()}) {
    for (const auto& regime : series.config().regimes) {
      std::printf("  %-9s %-26s days=[%lld, +%lld) up_prob=%.3f\n",
                  series.name().c_str(), regime.label.c_str(),
                  static_cast<long long>(regime.start_day),
                  static_cast<long long>(regime.num_days), regime.up_prob);
    }
  }
  std::printf("(paper shape: depression/crash and bull-run eras surface as "
              "the top disjoint periods per security)\n");
  return 0;
}
