#include "stats/count_statistics.h"

#include <cmath>

#include "common/check.h"
#include "stats/chi_squared.h"

namespace sigsub {
namespace stats {

double PearsonChiSquare(std::span<const int64_t> counts,
                        std::span<const double> probs) {
  SIGSUB_DCHECK(counts.size() == probs.size());
  int64_t l = 0;
  for (int64_t y : counts) l += y;
  if (l == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    double y = static_cast<double>(counts[i]);
    sum += y * y / probs[i];
  }
  double dl = static_cast<double>(l);
  return sum / dl - dl;
}

double LikelihoodRatioG2(std::span<const int64_t> counts,
                         std::span<const double> probs) {
  SIGSUB_DCHECK(counts.size() == probs.size());
  int64_t l = 0;
  for (int64_t y : counts) l += y;
  if (l == 0) return 0.0;
  double dl = static_cast<double>(l);
  double sum = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;  // 0 * ln(0) := 0
    double y = static_cast<double>(counts[i]);
    sum += y * std::log(y / (dl * probs[i]));
  }
  return 2.0 * sum;
}

double ChiSquarePValue(double x2, int alphabet_size) {
  SIGSUB_CHECK(alphabet_size >= 2);
  ChiSquaredDistribution dist(alphabet_size - 1);
  return dist.Sf(x2);
}

double ChiSquareThresholdForPValue(double alpha, int alphabet_size) {
  SIGSUB_CHECK(alphabet_size >= 2);
  ChiSquaredDistribution dist(alphabet_size - 1);
  return dist.CriticalValue(alpha);
}

}  // namespace stats
}  // namespace sigsub
