#include "io/table_writer.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace sigsub {
namespace io {

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SIGSUB_CHECK(!headers_.empty());
}

void TableWriter::AddRow(std::vector<std::string> cells) {
  SIGSUB_CHECK_MSG(cells.size() == headers_.size(),
                   "row has %zu cells, table has %zu columns", cells.size(),
                   headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TableWriter::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream oss;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) oss << "  ";
      oss << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) oss << ' ';
    }
    oss << '\n';
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  oss << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return oss.str();
}

}  // namespace io
}  // namespace sigsub
