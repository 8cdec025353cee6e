#include "io/table_writer.h"

#include "gtest/gtest.h"

namespace sigsub {
namespace io {
namespace {

TEST(TableWriterTest, RendersAlignedColumns) {
  TableWriter t({"Algo", "X2", "Time"});
  t.AddRow({"Trivial", "18.69", "8.54s"});
  t.AddRow({"Our", "18.69", "0.5s"});
  std::string out = t.Render();
  // Header present, rows present, underline present.
  EXPECT_NE(out.find("Algo"), std::string::npos);
  EXPECT_NE(out.find("Trivial"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Each line has the same padded structure: "Our" padded to width 7.
  EXPECT_NE(out.find("Our    "), std::string::npos);
}

TEST(TableWriterTest, RowCountTracksRows) {
  TableWriter t({"a", "b"});
  EXPECT_EQ(t.row_count(), 0u);
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableWriterTest, WideCellGrowsColumn) {
  TableWriter t({"h"});
  t.AddRow({"a-very-long-cell"});
  std::string out = t.Render();
  // Underline spans the widest cell.
  EXPECT_NE(out.find(std::string(16, '-')), std::string::npos);
}

}  // namespace
}  // namespace io
}  // namespace sigsub
