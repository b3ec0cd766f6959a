// Tests for linspace/logspace and grid evaluation.

#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace silicon::analysis {
namespace {

TEST(Linspace, EndpointsExact) {
    const auto xs = linspace(0.25, 1.0, 16);
    ASSERT_EQ(xs.size(), 16u);
    EXPECT_DOUBLE_EQ(xs.front(), 0.25);
    EXPECT_DOUBLE_EQ(xs.back(), 1.0);
}

TEST(Linspace, UniformSpacing) {
    const auto xs = linspace(0.0, 1.0, 5);
    for (std::size_t i = 1; i < xs.size(); ++i) {
        EXPECT_NEAR(xs[i] - xs[i - 1], 0.25, 1e-12);
    }
}

TEST(Linspace, DescendingWorks) {
    const auto xs = linspace(1.0, 0.2, 5);
    EXPECT_DOUBLE_EQ(xs.front(), 1.0);
    EXPECT_DOUBLE_EQ(xs.back(), 0.2);
    EXPECT_GT(xs[0], xs[1]);
}

TEST(Linspace, SinglePoint) {
    const auto xs = linspace(2.0, 2.0, 1);
    ASSERT_EQ(xs.size(), 1u);
    EXPECT_THROW((void)linspace(1.0, 2.0, 1), std::invalid_argument);
    EXPECT_THROW((void)linspace(1.0, 2.0, 0), std::invalid_argument);
}

TEST(Logspace, GeometricSpacing) {
    const auto xs = logspace(1.0, 100.0, 3);
    ASSERT_EQ(xs.size(), 3u);
    EXPECT_DOUBLE_EQ(xs[0], 1.0);
    EXPECT_NEAR(xs[1], 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(xs[2], 100.0);
}

TEST(Logspace, RejectsNonPositive) {
    EXPECT_THROW((void)logspace(0.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW((void)logspace(1.0, -1.0, 4), std::invalid_argument);
}

TEST(Sweep, EvaluatesFunction) {
    const series s = sweep("squares", linspace(0.0, 3.0, 4),
                           [](double x) { return x * x; });
    EXPECT_EQ(s.name(), "squares");
    ASSERT_EQ(s.size(), 4u);
    EXPECT_DOUBLE_EQ(s.points()[3].y, 9.0);
}

TEST(Grid, RowMajorLayout) {
    const grid g = evaluate_grid({1.0, 2.0}, {10.0, 20.0, 30.0},
                                 [](double x, double y) { return x + y; });
    EXPECT_EQ(g.values.size(), 6u);
    EXPECT_DOUBLE_EQ(g.at(0, 0), 11.0);
    EXPECT_DOUBLE_EQ(g.at(1, 0), 12.0);
    EXPECT_DOUBLE_EQ(g.at(0, 2), 31.0);
    EXPECT_DOUBLE_EQ(g.at(1, 2), 32.0);
}

TEST(Grid, MinMax) {
    const grid g = evaluate_grid({0.0, 1.0}, {0.0, 1.0},
                                 [](double x, double y) { return x - y; });
    EXPECT_DOUBLE_EQ(g.min_value(), -1.0);
    EXPECT_DOUBLE_EQ(g.max_value(), 1.0);
}

TEST(Grid, EmptyAxesRejected) {
    EXPECT_THROW((void)
        evaluate_grid({}, {1.0}, [](double, double) { return 0.0; }),
        std::invalid_argument);
}

TEST(Grid, EmptyGridStatisticsThrow) {
    grid g;
    EXPECT_THROW((void)g.min_value(), std::domain_error);
}

}  // namespace
}  // namespace silicon::analysis
