#include "common/table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace kyoto {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name        | value"), std::string::npos);
  EXPECT_NE(s.find("longer-name | 22"), std::string::npos);
  EXPECT_NE(s.find("------------+------"), std::string::npos);
}

TEST(TextTable, MissingCellsRenderEmpty) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::logic_error);
}

TEST(TextTable, EmptyHeadersThrows) {
  EXPECT_THROW(TextTable({}), std::logic_error);
}

TEST(FmtDouble, FixedDigits) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_double(-1.5, 1), "-1.5");
}

TEST(FmtCount, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-1234567), "-1,234,567");
}

TEST(AsciiBar, ProportionalLength) {
  EXPECT_EQ(ascii_bar(0.0, 10.0, 10), "");
  EXPECT_EQ(ascii_bar(5.0, 10.0, 10), "#####");
  EXPECT_EQ(ascii_bar(10.0, 10.0, 10), "##########");
  // Clamped above max.
  EXPECT_EQ(ascii_bar(20.0, 10.0, 10), "##########");
}

TEST(AsciiBar, DegenerateInputs) {
  EXPECT_EQ(ascii_bar(1.0, 0.0, 10), "");
  EXPECT_EQ(ascii_bar(1.0, 10.0, 0), "");
}

}  // namespace
}  // namespace kyoto
