#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rp::util {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"IXP", "members"});
  t.add_row({"AMS-IX", "638"});
  t.add_row({"TIE", "149"});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("IXP    | members"), std::string::npos);
  EXPECT_NE(out.find("AMS-IX |     638"), std::string::npos);
  EXPECT_NE(out.find("TIE    |     149"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeadersThrow) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(FmtDouble, Digits) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(3.14159, 0), "3");
}

TEST(FmtRate, AdaptiveUnits) {
  EXPECT_EQ(fmt_rate_bps(500.0), "500 bps");
  EXPECT_EQ(fmt_rate_bps(2500.0), "2.50 Kbps");
  EXPECT_EQ(fmt_rate_bps(3.5e6), "3.50 Mbps");
  EXPECT_EQ(fmt_rate_bps(1.6e9), "1.60 Gbps");
}

TEST(FmtPercent, OneDecimal) {
  EXPECT_EQ(fmt_percent(0.273), "27.3%");
  EXPECT_EQ(fmt_percent(1.0), "100.0%");
}

}  // namespace
}  // namespace rp::util
