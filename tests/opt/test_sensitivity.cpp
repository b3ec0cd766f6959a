// Tests for the elasticity / sensitivity analysis.

#include "opt/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace silicon::opt {
namespace {

TEST(Elasticities, PowerLawExponentsRecovered) {
    // C = a^2 * b^-1 * c^0.5: elasticities are exactly 2, -1, 0.5.
    const auto objective = [](const std::vector<double>& v) {
        return v[0] * v[0] / v[1] * std::sqrt(v[2]);
    };
    const std::vector<parameter> params = {
        {"a", 3.0}, {"b", 2.0}, {"c", 4.0}};
    const auto rows = elasticities(objective, params);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_NEAR(rows[0].value, 2.0, 1e-6);
    EXPECT_NEAR(rows[1].value, -1.0, 1e-6);
    EXPECT_NEAR(rows[2].value, 0.5, 1e-6);
}

TEST(Elasticities, ExponentialGivesValueTimesLog) {
    // C = exp(k*x): d ln C / d ln x = k*x.
    const double k = 0.7;
    const auto objective = [k](const std::vector<double>& v) {
        return std::exp(k * v[0]);
    };
    const std::vector<parameter> params = {{"x", 2.0}};
    const auto rows = elasticities(objective, params);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_NEAR(rows[0].value, k * 2.0, 1e-5);
}

TEST(Elasticities, SkipsZeroValuedParameters) {
    const auto objective = [](const std::vector<double>& v) {
        return 1.0 + v[0] + v[1];
    };
    const std::vector<parameter> params = {{"zero", 0.0}, {"one", 1.0}};
    const auto rows = elasticities(objective, params);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "one");
}

TEST(Elasticities, RejectsNonPositiveObjective) {
    const auto objective = [](const std::vector<double>&) { return -1.0; };
    const std::vector<parameter> params = {{"x", 1.0}};
    EXPECT_THROW((void)elasticities(objective, params), std::domain_error);
}

TEST(Elasticities, RejectsBadStep) {
    const auto objective = [](const std::vector<double>&) { return 1.0; };
    const std::vector<parameter> params = {{"x", 1.0}};
    EXPECT_THROW((void)elasticities(objective, params, 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)elasticities(objective, params, 0.9),
                 std::invalid_argument);
}

TEST(Ranked, SortsByMagnitude) {
    std::vector<elasticity> rows = {
        {"small", 0.1, 1.0}, {"large-negative", -3.0, 1.0},
        {"medium", 1.5, 1.0}};
    const auto sorted = ranked(rows);
    EXPECT_EQ(sorted[0].name, "large-negative");
    EXPECT_EQ(sorted[1].name, "medium");
    EXPECT_EQ(sorted[2].name, "small");
}

}  // namespace
}  // namespace silicon::opt
