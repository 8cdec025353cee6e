#include "io/sports_sim.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"
#include "seq/rng.h"

namespace sigsub {
namespace io {
namespace {

Status ValidateEras(const RivalryConfig& config) {
  std::vector<PlantedEra> eras = config.eras;
  std::sort(eras.begin(), eras.end(),
            [](const PlantedEra& a, const PlantedEra& b) {
              return a.start_game < b.start_game;
            });
  int64_t prev_end = 0;
  for (const PlantedEra& era : eras) {
    if (era.start_game < 0 || era.num_games <= 0) {
      return Status::InvalidArgument(
          StrCat("era '", era.label, "' has invalid bounds [", era.start_game,
                 ", +", era.num_games, ")"));
    }
    if (era.start_game < prev_end) {
      return Status::InvalidArgument(
          StrCat("era '", era.label, "' overlaps the previous era"));
    }
    if (era.start_game + era.num_games > config.num_games) {
      return Status::InvalidArgument(
          StrCat("era '", era.label, "' extends past the schedule (",
                 config.num_games, " games)"));
    }
    if (!(era.win_prob > 0.0 && era.win_prob < 1.0)) {
      return Status::InvalidArgument(
          StrCat("era '", era.label, "' win_prob must be in (0,1), got ",
                 era.win_prob));
    }
    prev_end = era.start_game + era.num_games;
  }
  return Status::OK();
}

}  // namespace

Result<RivalrySeries> RivalrySeries::Generate(const RivalryConfig& config) {
  if (config.num_games <= 0) {
    return Status::InvalidArgument(
        StrCat("num_games must be positive, got ", config.num_games));
  }
  if (!(config.base_win_prob > 0.0 && config.base_win_prob < 1.0)) {
    return Status::InvalidArgument(
        StrCat("base_win_prob must be in (0,1), got ", config.base_win_prob));
  }
  SIGSUB_RETURN_IF_ERROR(ValidateEras(config));

  // Per-game win probability: base rate, overridden inside planted eras.
  std::vector<double> win_prob(static_cast<size_t>(config.num_games),
                               config.base_win_prob);
  for (const PlantedEra& era : config.eras) {
    for (int64_t g = era.start_game; g < era.start_game + era.num_games; ++g) {
      win_prob[static_cast<size_t>(g)] = era.win_prob;
    }
  }
  seq::Rng rng(config.seed);
  seq::Sequence outcomes(2);
  outcomes.Reserve(config.num_games);
  for (int64_t g = 0; g < config.num_games; ++g) {
    outcomes.Append(rng.NextBernoulli(win_prob[static_cast<size_t>(g)]) ? 1
                                                                        : 0);
  }
  DateAxis dates = DateAxis::SportsSchedule(config.start_year,
                                            config.num_games,
                                            config.games_per_year);
  return RivalrySeries(config, std::move(outcomes), std::move(dates));
}

RivalrySeries RivalrySeries::Default() {
  RivalryConfig config;
  // 21 games/season from 1901: game index ~ (year - 1901) * 21.
  auto game_of_year = [&](int year) -> int64_t {
    return static_cast<int64_t>(year - config.start_year) *
           config.games_per_year;
  };
  // Era layout mirrors the paper's Table 3: the
  // 1924-1933 Yankees dynasty, the 1911-1913 Red Sox glory years, plus the
  // three shorter patches the paper reports.
  config.eras = {
      {game_of_year(1902) + 2, 27, 0.148, "1902-1903 Red Sox edge"},
      {game_of_year(1911) + 9, 39, 0.128, "1911-1913 Red Sox glory"},
      {game_of_year(1924) + 6, 204, 0.760, "1924-1933 Yankees dynasty"},
      {game_of_year(1960) + 6, 42, 0.800, "1960-1962 Yankees run"},
      {game_of_year(1972) + 1, 35, 0.200, "1972-1974 Red Sox run"},
  };
  auto result = Generate(config);
  SIGSUB_CHECK(result.ok());
  return std::move(result).value();
}

int64_t RivalrySeries::WinsInRange(int64_t start, int64_t end) const {
  SIGSUB_CHECK(start >= 0 && start <= end && end <= outcomes_.size());
  int64_t wins = 0;
  for (int64_t i = start; i < end; ++i) wins += outcomes_[i];
  return wins;
}

double RivalrySeries::EmpiricalWinRate() const {
  SIGSUB_CHECK(outcomes_.size() > 0);
  return static_cast<double>(WinsInRange(0, outcomes_.size())) /
         static_cast<double>(outcomes_.size());
}

}  // namespace io
}  // namespace sigsub
