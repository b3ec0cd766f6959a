#include "geometry/gross_die.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace silicon::geometry {

namespace {

constexpr double pi = 3.14159265358979323846;

// Work bounds.  A wafer radius or die edge far outside any real process
// (the paper's wafers are 100-200 mm; 450 mm is the largest ever
// planned) fails with std::domain_error before the loops instead of
// holding a thread for seconds to hours.  A 450 mm wafer with a 1 mm die
// needs 450 rows per orientation and ~1.3e7 exact cell tests.
constexpr double max_row_scan = 1 << 20;       ///< Eq. (4) rows
constexpr double max_cell_tests = 1 << 26;     ///< exact: cells x offsets^2

/// Half chord length of a circle of radius r_mm at signed height y_mm from
/// the center; zero outside the circle.
double half_chord(double r_mm, double y_mm) {
    const double d2 = r_mm * r_mm - y_mm * y_mm;
    return d2 > 0.0 ? std::sqrt(d2) : 0.0;
}

}  // namespace

long maly_row_count(const wafer& w, const die& d) {
    const double r = w.usable_radius().to_millimeters().value();
    const double a = d.width().value();
    const double b = d.height().value();

    // Rows of height b stacked from the bottom of the wafer (y = -r).
    const double row_scan = std::floor(2.0 * r / b);
    if (!(row_scan <= max_row_scan)) {
        throw std::domain_error(
            "gross dies: Eq. (4) needs more than 1048576 die rows "
            "(wafer radius / die edge too large)");
    }
    const auto rows = static_cast<long>(row_scan);
    long total = 0;
    for (long j = 0; j < rows; ++j) {
        // Chord half-lengths at the bottom and top edge of row j.
        const double y_lo = static_cast<double>(j) * b - r;
        const double y_hi = static_cast<double>(j + 1) * b - r;
        const double chord =
            std::min(half_chord(r, y_lo), half_chord(r, y_hi));
        total += static_cast<long>(std::floor(2.0 * chord / a));
    }
    return total;
}

long maly_row_count_best_orientation(const wafer& w, const die& d) {
    return std::max(maly_row_count(w, d), maly_row_count(w, d.rotated()));
}

long area_ratio_bound(const wafer& w, const die& d) {
    const double wafer_mm2 = w.usable_area().to_square_millimeters().value();
    return static_cast<long>(std::floor(wafer_mm2 / d.area().value()));
}

long circumference_corrected(const wafer& w, const die& d) {
    const double r = w.usable_radius().to_millimeters().value();
    const double area = d.area().value();
    const double n =
        pi * r * r / area - pi * (2.0 * r) / std::sqrt(2.0 * area);
    return n > 0.0 ? static_cast<long>(std::floor(n)) : 0;
}

long ferris_prabhu(const wafer& w, const die& d) {
    const double r = w.usable_radius().to_millimeters().value();
    const double area = d.area().value();
    const double s = std::sqrt(area);
    const double r_eff = r - 0.5 * s;
    if (r_eff <= 0.0) {
        return 0;
    }
    return static_cast<long>(std::floor(pi * r_eff * r_eff / area));
}

namespace {

/// The grid placement that exact_count searches: whole dies of a
/// rectangular grid (die plus scribe pitch) inside the usable circle.
class placement_grid {
public:
    placement_grid(const wafer& w, const die& d, millimeters scribe)
        : r_{w.usable_radius().to_millimeters().value()},
          r2_{r_ * r_},
          a_{d.width().value()},
          b_{d.height().value()},
          pitch_x_{a_ + scribe.value()},
          pitch_y_{b_ + scribe.value()} {}

    /// The best count over offsets_per_axis^2 grid offsets and the
    /// offset that achieved it (the first one wins ties); row_counts
    /// stays empty, so the search allocates nothing.
    [[nodiscard]] placement_result best(int offsets_per_axis) const {
        if (offsets_per_axis < 1) {
            throw std::invalid_argument(
                "exact_count: offsets_per_axis must be >= 1");
        }
        const auto steps = static_cast<double>(offsets_per_axis);
        // count() scans about (2r / pitch + 4) cells per axis.
        const double cell_tests = (std::floor(2.0 * r_ / pitch_x_) + 4.0) *
                                  (std::floor(2.0 * r_ / pitch_y_) + 4.0) *
                                  steps * steps;
        if (!(cell_tests <= max_cell_tests)) {
            throw std::domain_error(
                "gross dies: exact placement needs more than 67108864 "
                "cell tests (wafer radius / die pitch too large)");
        }
        placement_result best;
        for (int oi = 0; oi < offsets_per_axis; ++oi) {
            for (int oj = 0; oj < offsets_per_axis; ++oj) {
                const double off_x =
                    pitch_x_ * static_cast<double>(oi) / steps;
                const double off_y =
                    pitch_y_ * static_cast<double>(oj) / steps;
                const long count = this->count(off_x, off_y, nullptr);
                if (count > best.count) {
                    best.count = count;
                    best.offset_x = off_x;
                    best.offset_y = off_y;
                }
            }
        }
        return best;
    }

    /// Whole dies placed with the grid shifted by (off_x, off_y); when
    /// `rows` is given, appends each non-empty row's count (bottom to
    /// top).
    long count(double off_x, double off_y, std::vector<long>* rows) const {
        long total = 0;
        // Enumerate grid cells overlapping the disc bounding box.
        const long j_lo =
            static_cast<long>(std::floor((-r_ - off_y) / pitch_y_) - 1);
        const long j_hi =
            static_cast<long>(std::ceil((r_ - off_y) / pitch_y_) + 1);
        const long i_lo =
            static_cast<long>(std::floor((-r_ - off_x) / pitch_x_) - 1);
        const long i_hi =
            static_cast<long>(std::ceil((r_ - off_x) / pitch_x_) + 1);
        for (long j = j_lo; j <= j_hi; ++j) {
            const double y = off_y + static_cast<double>(j) * pitch_y_;
            long in_row = 0;
            for (long i = i_lo; i <= i_hi; ++i) {
                const double x = off_x + static_cast<double>(i) * pitch_x_;
                if (die_fits(x, y)) {
                    ++in_row;
                }
            }
            if (in_row > 0 && rows != nullptr) {
                rows->push_back(in_row);
            }
            total += in_row;
        }
        return total;
    }

private:
    // A die placed with lower-left corner (x, y) fits iff all four
    // corners lie inside the usable circle; because the die is convex
    // and the disc is convex, corners suffice.
    [[nodiscard]] bool corner_inside(double x, double y) const {
        return x * x + y * y <= r2_;
    }
    [[nodiscard]] bool die_fits(double x, double y) const {
        return corner_inside(x, y) && corner_inside(x + a_, y) &&
               corner_inside(x, y + b_) && corner_inside(x + a_, y + b_);
    }

    double r_;
    double r2_;
    double a_;
    double b_;
    double pitch_x_;
    double pitch_y_;
};

}  // namespace

placement_result exact_count(const wafer& w, const die& d, millimeters scribe,
                             int offsets_per_axis) {
    const placement_grid grid{w, d, scribe};
    placement_result best = grid.best(offsets_per_axis);
    if (best.count > 0) {
        (void)grid.count(best.offset_x, best.offset_y, &best.row_counts);
    }
    return best;
}

long gross_dies(const wafer& w, const die& d, gross_die_method method,
                millimeters scribe) {
    switch (method) {
        case gross_die_method::maly_rows:
            return maly_row_count(w, d);
        case gross_die_method::maly_rows_best_orient:
            return maly_row_count_best_orientation(w, d);
        case gross_die_method::area_ratio:
            return area_ratio_bound(w, d);
        case gross_die_method::circumference:
            return circumference_corrected(w, d);
        case gross_die_method::ferris_prabhu:
            return ferris_prabhu(w, d);
        case gross_die_method::exact:
            // exact_count's default search, without storing rows.
            return placement_grid{w, d, scribe}.best(8).count;
    }
    throw std::invalid_argument("gross_dies: unknown method");
}

std::string to_string(gross_die_method method) {
    switch (method) {
        case gross_die_method::maly_rows:
            return "maly_rows";
        case gross_die_method::maly_rows_best_orient:
            return "maly_rows_best_orient";
        case gross_die_method::area_ratio:
            return "area_ratio";
        case gross_die_method::circumference:
            return "circumference";
        case gross_die_method::ferris_prabhu:
            return "ferris_prabhu";
        case gross_die_method::exact:
            return "exact";
    }
    return "unknown";
}

}  // namespace silicon::geometry
