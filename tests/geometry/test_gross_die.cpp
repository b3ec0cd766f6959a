// Unit + property tests for the gross-die-per-wafer estimators.

#include "geometry/gross_die.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace silicon::geometry {
namespace {

wafer six_inch() { return wafer::six_inch(); }

TEST(MalyRowCount, Table3Row1Die) {
    // Table 3 row 1: 3.1M transistors at d_d = 150, lambda = 0.8 um
    // => 297.6 mm^2 square die (17.25 mm edge) on a 6-inch wafer.
    const die d = die::square_with_area(square_millimeters{297.6});
    EXPECT_EQ(maly_row_count(six_inch(), d), 46);
}

TEST(MalyRowCount, HugeDieDoesNotFit) {
    const die d = die::square(millimeters{200.0});
    EXPECT_EQ(maly_row_count(six_inch(), d), 0);
}

TEST(MalyRowCount, DieAsLargeAsInscribedSquareFitsOnce) {
    // A die of edge r*sqrt(2) exactly inscribes; the row formula places
    // it when rows align, i.e. count >= 1 for slightly smaller dies.
    const die d = die::square(millimeters{75.0 * 1.4142 * 0.99});
    EXPECT_GE(maly_row_count(six_inch(), d), 0);  // no crash, small count
}

TEST(MalyRowCount, MatchesManualSmallCase) {
    // 30 mm square dies on a 75 mm radius wafer: rows at y = -75..75.
    // Manual enumeration gives rows of chords min over edges.
    const die d = die::square(millimeters{30.0});
    // rows: floor(150/30) = 5 rows; chord half-lengths at the five row
    // boundaries: y=-75:0, -45:60, -15:73.48, 15:73.48, 45:60, 75:0.
    // Row counts: floor(2*0/30)=0? min(0,60)->0, min(60,73.48)->4,
    // min(73.48,73.48)->4, min(73.48,60)->4, min(60,0)->0 => 12.
    EXPECT_EQ(maly_row_count(six_inch(), d), 12);
}

TEST(MalyRowCount, BestOrientationAtLeastAsGood) {
    const die d{millimeters{21.0}, millimeters{9.0}};
    const long plain = maly_row_count(six_inch(), d);
    const long best = maly_row_count_best_orientation(six_inch(), d);
    EXPECT_GE(best, plain);
}

TEST(AreaRatioBound, DominatesEveryOtherEstimator) {
    for (double edge : {3.0, 5.0, 8.0, 12.0, 17.0, 25.0}) {
        const die d = die::square(millimeters{edge});
        const long bound = area_ratio_bound(six_inch(), d);
        EXPECT_GE(bound, maly_row_count(six_inch(), d)) << edge;
        EXPECT_GE(bound, circumference_corrected(six_inch(), d)) << edge;
        EXPECT_GE(bound, exact_count(six_inch(), d).count) << edge;
    }
}

TEST(CircumferenceCorrected, NegativeEstimateClampsToZero) {
    const die d = die::square(millimeters{140.0});
    EXPECT_EQ(circumference_corrected(six_inch(), d), 0);
}

TEST(FerrisPrabhu, ZeroWhenDieLargerThanWafer) {
    const die d = die::square(millimeters{200.0});
    EXPECT_EQ(ferris_prabhu(six_inch(), d), 0);
}

TEST(ExactCount, RigidGridStaysCloseToRowFormula) {
    // The row formula re-centers each row in x independently, which a
    // rigid stepper grid cannot do, so the exact count may fall a die or
    // two short — but never by more than a few percent, and never above
    // the per-row-optimal bound by much either.
    for (double edge : {5.0, 9.0, 13.0, 17.25}) {
        const die d = die::square(millimeters{edge});
        const double exact =
            static_cast<double>(exact_count(six_inch(), d).count);
        const double rows =
            static_cast<double>(maly_row_count(six_inch(), d));
        EXPECT_GE(exact, 0.95 * rows - 1.0) << edge;
        EXPECT_LE(exact, 1.10 * rows + 1.0) << edge;
    }
}

TEST(ExactCount, ScribeLanesReduceCount) {
    const die d = die::square(millimeters{8.0});
    const long tight = exact_count(six_inch(), d).count;
    const long scribed =
        exact_count(six_inch(), d, millimeters{0.8}).count;
    EXPECT_LT(scribed, tight);
    EXPECT_GT(scribed, 0);
}

TEST(ExactCount, RowCountsSumToTotal) {
    const die d = die::square(millimeters{11.0});
    const placement_result placed = exact_count(six_inch(), d);
    long sum = 0;
    for (long row : placed.row_counts) {
        sum += row;
    }
    EXPECT_EQ(sum, placed.count);
}

TEST(ExactCount, RejectsBadOffsetCount) {
    const die d = die::square(millimeters{10.0});
    EXPECT_THROW((void)exact_count(six_inch(), d, millimeters{0.0}, 0),
                 std::invalid_argument);
}

TEST(GrossDies, DispatchMatchesDirectCalls) {
    const die d = die::square(millimeters{10.0});
    const wafer w = six_inch();
    EXPECT_EQ(gross_dies(w, d, gross_die_method::maly_rows),
              maly_row_count(w, d));
    EXPECT_EQ(gross_dies(w, d, gross_die_method::maly_rows_best_orient),
              maly_row_count_best_orientation(w, d));
    EXPECT_EQ(gross_dies(w, d, gross_die_method::area_ratio),
              area_ratio_bound(w, d));
    EXPECT_EQ(gross_dies(w, d, gross_die_method::circumference),
              circumference_corrected(w, d));
    EXPECT_EQ(gross_dies(w, d, gross_die_method::ferris_prabhu),
              ferris_prabhu(w, d));
    EXPECT_EQ(gross_dies(w, d, gross_die_method::exact),
              exact_count(w, d).count);
}

TEST(GrossDies, MethodNames) {
    EXPECT_EQ(to_string(gross_die_method::maly_rows), "maly_rows");
    EXPECT_EQ(to_string(gross_die_method::exact), "exact");
    EXPECT_EQ(to_string(gross_die_method::ferris_prabhu), "ferris_prabhu");
}

// Property sweep: all estimators are monotonically non-increasing in die
// edge and agree within a tolerance band for small dies.
class GrossDieSweep : public ::testing::TestWithParam<double> {};

TEST_P(GrossDieSweep, EstimatorsAgreeWithinBandForSmallDies) {
    const double edge = GetParam();
    const die d = die::square(millimeters{edge});
    const wafer w = six_inch();
    const double exact = static_cast<double>(exact_count(w, d).count);
    ASSERT_GT(exact, 0.0);
    const double rows = static_cast<double>(maly_row_count(w, d));
    const double circ =
        static_cast<double>(circumference_corrected(w, d));
    // Small dies: closed forms within 12% of exact placement.
    EXPECT_NEAR(rows / exact, 1.0, 0.12) << edge;
    EXPECT_NEAR(circ / exact, 1.0, 0.12) << edge;
}

INSTANTIATE_TEST_SUITE_P(SmallDies, GrossDieSweep,
                         ::testing::Values(2.0, 3.0, 4.0, 5.0, 6.0, 8.0));

TEST(GrossDieBounds, LargestPlannedWaferEvaluatesAndHugeOnesThrow) {
    // A 450 mm wafer with a 1 mm die stays inside the work bounds under
    // every method; a wafer radius no process has is rejected before
    // the loops (Eq. (4) rows, exact cell tests).
    const wafer w450{centimeters{22.5}};
    const die one_mm = die::square(millimeters{1.0});
    for (const gross_die_method m :
         {gross_die_method::maly_rows, gross_die_method::maly_rows_best_orient,
          gross_die_method::area_ratio, gross_die_method::circumference,
          gross_die_method::ferris_prabhu, gross_die_method::exact}) {
        EXPECT_GT(gross_dies(w450, one_mm, m), 150000) << to_string(m);
    }
    const die ten_mm = die::square(millimeters{10.0});
    EXPECT_THROW((void)maly_row_count(wafer{centimeters{1e9}}, ten_mm),
                 std::domain_error);
    EXPECT_THROW((void)exact_count(wafer{centimeters{1e5}}, ten_mm),
                 std::domain_error);
}

class GrossDieMonotone : public ::testing::TestWithParam<gross_die_method> {};

TEST_P(GrossDieMonotone, CountNonIncreasingInDieEdge) {
    const wafer w = six_inch();
    long previous = -1;
    for (double edge = 2.0; edge <= 30.0; edge += 1.0) {
        const long count =
            gross_dies(w, die::square(millimeters{edge}), GetParam());
        if (previous >= 0) {
            EXPECT_LE(count, previous) << "edge " << edge;
        }
        previous = count;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, GrossDieMonotone,
    ::testing::Values(gross_die_method::maly_rows,
                      gross_die_method::maly_rows_best_orient,
                      gross_die_method::area_ratio,
                      gross_die_method::circumference,
                      gross_die_method::ferris_prabhu,
                      gross_die_method::exact));

}  // namespace
}  // namespace silicon::geometry
