#include "io/string_codec.h"

#include "common/str_util.h"

namespace sigsub {
namespace io {

Result<seq::Sequence> UpDownFromLevels(const std::vector<double>& levels) {
  if (levels.size() < 2) {
    return Status::InvalidArgument(
        StrCat("need at least 2 levels to compute moves, got ",
               levels.size()));
  }
  seq::Sequence out(2);
  out.Reserve(static_cast<int64_t>(levels.size()) - 1);
  for (size_t i = 1; i < levels.size(); ++i) {
    out.Append(levels[i] > levels[i - 1] ? 1 : 0);
  }
  return out;
}

std::string FormatPercent(double fraction, int decimals) {
  return StrFormat("%.*f%%", decimals, fraction * 100.0);
}

std::string FormatSignedPercent(double fraction, int decimals) {
  return StrFormat("%+.*f%%", decimals, fraction * 100.0);
}

}  // namespace io
}  // namespace sigsub
