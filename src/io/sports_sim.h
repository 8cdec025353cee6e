#ifndef SIGSUB_IO_SPORTS_SIM_H_
#define SIGSUB_IO_SPORTS_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/date_axis.h"
#include "seq/sequence.h"

namespace sigsub {
namespace io {

/// A planted era: `num_games` games starting at game index `start_game`
/// during which team A's win probability is `win_prob` instead of the
/// base rate.
struct PlantedEra {
  int64_t start_game = 0;
  int64_t num_games = 0;
  double win_prob = 0.5;
  std::string label;
};

/// Configuration of the synthetic rivalry series (stand-in for the
/// Yankees–Red Sox results of paper Section 7.5.1, which the repository
/// does not ship).
struct RivalryConfig {
  int start_year = 1901;
  int64_t num_games = 2086;   // ~the paper's "over two thousand games".
  int games_per_year = 21;
  double base_win_prob = 0.5427;  // Paper: Yankees won 54.27%.
  std::vector<PlantedEra> eras;
  uint64_t seed = 19011904;
};

/// The generated series: outcomes[i] == 1 iff team A won game i.
class RivalrySeries {
 public:
  /// Generates from a config; fails if eras overlap or exceed the schedule.
  static Result<RivalrySeries> Generate(const RivalryConfig& config);

  /// The default dataset: era layout mirroring the paper's Table 3
  /// (a long 1924-1933 Yankees era, the 1911-1913 Red Sox glory period,
  /// etc.).
  static RivalrySeries Default();

  const seq::Sequence& outcomes() const { return outcomes_; }
  const DateAxis& dates() const { return dates_; }
  const RivalryConfig& config() const { return config_; }

  /// Wins for team A in games [start, end).
  int64_t WinsInRange(int64_t start, int64_t end) const;

  /// Empirical win probability over the whole series (the null-model p̂
  /// used when scoring, as the paper estimates it from the data).
  double EmpiricalWinRate() const;

 private:
  RivalrySeries(RivalryConfig config, seq::Sequence outcomes, DateAxis dates)
      : config_(std::move(config)),
        outcomes_(std::move(outcomes)),
        dates_(std::move(dates)) {}

  RivalryConfig config_;
  seq::Sequence outcomes_;
  DateAxis dates_;
};

}  // namespace io
}  // namespace sigsub

#endif  // SIGSUB_IO_SPORTS_SIM_H_
