#include "common/table_printer.h"

#include <gtest/gtest.h>

namespace atnn {
namespace {

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table("Title");
  table.SetHeader({"Model", "AUC"});
  table.AddRow({"GBDT", "0.6149"});
  table.AddRow({"ATNN", "0.7121"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("Title"), std::string::npos);
  EXPECT_NE(text.find("| Model |"), std::string::npos);
  EXPECT_NE(text.find("| GBDT  |"), std::string::npos);
  EXPECT_NE(text.find("0.7121"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.71214, 4), "0.7121");
  EXPECT_EQ(TablePrinter::Num(10.5, 2), "10.50");
  EXPECT_EQ(TablePrinter::Num(-6.69, 2), "-6.69");
}

TEST(TablePrinterTest, EmptyTableStillRendersHeader) {
  TablePrinter table("t");
  table.SetHeader({"only"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("| only |"), std::string::npos);
}

}  // namespace
}  // namespace atnn
