#include "sim/svg_plot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace coaxial::report {
namespace {

class SvgTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string slurp() {
    std::ifstream f(path_);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }
  // One file per test: ctest runs this suite's tests as parallel processes.
  std::string path_ =
      std::string("/tmp/coaxial_test_plot_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".svg";
};

TEST_F(SvgTest, BarChartWritesWellFormedSvg) {
  ASSERT_TRUE(write_bar_chart_svg(path_, "Speedup", {"a", "b", "c"},
                                  {{"COAXIAL-4x", {1.2, 0.9, 3.0}}}, 1.0));
  const std::string svg = slurp();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("Speedup"), std::string::npos);
  EXPECT_NE(svg.find("COAXIAL-4x"), std::string::npos);
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);  // Reference line.
  // One rect per (category, series) plus background.
  EXPECT_GE(static_cast<int>(std::count(svg.begin(), svg.end(), 'r')), 3);
}

TEST_F(SvgTest, BarChartMultiSeries) {
  ASSERT_TRUE(write_bar_chart_svg(path_, "t", {"w1", "w2"},
                                  {{"s1", {1, 2}}, {"s2", {2, 1}}, {"s3", {3, 3}}}));
  const std::string svg = slurp();
  EXPECT_NE(svg.find("s1"), std::string::npos);
  EXPECT_NE(svg.find("s3"), std::string::npos);
}

TEST_F(SvgTest, BarChartRejectsEmptyInput) {
  EXPECT_FALSE(write_bar_chart_svg(path_, "t", {}, {{"s", {}}}));
  EXPECT_FALSE(write_bar_chart_svg(path_, "t", {"a"}, {}));
}

TEST_F(SvgTest, EscapesMarkupInLabels) {
  ASSERT_TRUE(write_bar_chart_svg(path_, "a<b&c>", {"x<y"}, {{"s&t", {1.0}}}));
  const std::string svg = slurp();
  EXPECT_EQ(svg.find("a<b"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b&amp;c&gt;"), std::string::npos);
}

TEST_F(SvgTest, LineChartWritesPolylines) {
  ASSERT_TRUE(write_line_chart_svg(path_, "load-latency", {10, 20, 30, 40},
                                   {{"avg", {50, 60, 90, 200}}, {"p90", {60, 90, 160, 400}}},
                                   "util %", "latency ns"));
  const std::string svg = slurp();
  EXPECT_EQ(std::count(svg.begin(), svg.end(), '\n') > 10, true);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("util %"), std::string::npos);
  EXPECT_NE(svg.find("latency ns"), std::string::npos);
}

TEST_F(SvgTest, LineChartNeedsTwoPoints) {
  EXPECT_FALSE(write_line_chart_svg(path_, "t", {1.0}, {{"s", {1.0}}}, "x", "y"));
}

TEST_F(SvgTest, BadPathReturnsFalse) {
  EXPECT_FALSE(write_bar_chart_svg("/nonexistent-dir/x.svg", "t", {"a"}, {{"s", {1}}}));
}

TEST_F(SvgTest, ZeroAndNegativeValuesClampToBaseline) {
  ASSERT_TRUE(write_bar_chart_svg(path_, "t", {"a", "b"}, {{"s", {0.0, -5.0}}}));
  const std::string svg = slurp();
  EXPECT_NE(svg.find("</svg>"), std::string::npos);  // No NaN explosions.
  EXPECT_EQ(svg.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace coaxial::report
