#include "util/table_printer.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ibarb::util {
namespace {

TEST(TablePrinter, RendersHeaderAndRows) {
  TablePrinter t({"SL", "Distance"});
  t.add_row({"0", "2"});
  t.add_row({"1", "4"});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("SL"), std::string::npos);
  EXPECT_NE(out.find("Distance"), std::string::npos);
  EXPECT_NE(out.find("| 0"), std::string::npos);
  EXPECT_NE(out.find("| 4"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, ColumnsAlignToWidestCell) {
  TablePrinter t({"a"});
  t.add_row({"wide-cell-content"});
  std::ostringstream os;
  t.print(os);
  // Every line of the box should have equal length.
  std::istringstream in(os.str());
  std::string line;
  std::size_t len = 0;
  while (std::getline(in, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(TablePrinter, NumFormatsFixedPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(TablePrinter, PctFormatsFractionAsPercent) {
  EXPECT_EQ(TablePrinter::pct(0.5, 1), "50.0%");
  EXPECT_EQ(TablePrinter::pct(1.0, 0), "100%");
}

}  // namespace
}  // namespace ibarb::util
