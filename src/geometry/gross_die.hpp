// gross_die.hpp — gross-die-per-wafer (N_ch) estimators.
//
// Eq. (4) of the paper counts whole dies in horizontal rows stacked across
// the wafer.  The literature (Ferris-Prabhu [20] and successors) offers a
// family of closed-form approximations; this module implements the paper's
// row formula plus the standard approximations so they can be
// cross-validated (bench_ablate_grossdie) and so callers can pick the
// fidelity/speed point they need.
//
// A note on Eq. (4) as printed: the paper typesets
//
//     N_ch = sum_{j=0}^{floor(2 R_w / b) - 1} floor[ (2 / (a/b)) min(R_j, R_{j+1}) ]
//     R_j  = sqrt(R_w^2 - (j a b - R_w)^2)
//
// which is dimensionally inconsistent (the product `a*b` inside R_j is an
// area, and `2/(a/b)` carries a stray factor of b).  The intended formula —
// standard row-by-row die counting, and the one that reproduces the
// published N_ch values — stacks rows of height b across the 2*R_w wafer
// diameter and counts dies of width a within the chord at each row
// boundary:
//
//     R_j  = sqrt(R_w^2 - (j*b - R_w)^2)          (half chord at row line j)
//     N_ch = sum_j floor[ (2/a) * min(R_j, R_{j+1}) ]
//
// Both row edges must lie inside the circle, hence the min().  This is what
// `maly_row_count` implements.

#pragma once

#include "geometry/die.hpp"
#include "geometry/wafer.hpp"

#include <string>
#include <vector>

namespace silicon::geometry {

/// Eq. (4): row-stacked whole-die count.  Rows of height b are stacked
/// bottom-to-top across the wafer; each row holds floor(2*min(R_j,R_j+1)/a)
/// dies.  Deterministic, centered grid (no offset search).
/// Returns 0 when the die does not fit at all; throws std::domain_error
/// when the scan would exceed 2^20 rows (wafer radius / die edge far
/// beyond any real process).
[[nodiscard]] long maly_row_count(const wafer& w, const die& d);

/// Same as maly_row_count but also evaluated with the die rotated 90
/// degrees; returns the larger count (a free optimization a mask designer
/// would always take for non-square dies).
[[nodiscard]] long maly_row_count_best_orientation(const wafer& w,
                                                   const die& d);

/// Naive upper bound: floor(wafer area / die area).  Ignores the circular
/// boundary entirely; useful as a sanity ceiling for the other estimators.
[[nodiscard]] long area_ratio_bound(const wafer& w, const die& d);

/// The classic first-order circumference correction
///     N = pi R^2 / A - pi (2R) / sqrt(2 A)
/// attributed to the die-per-wafer folklore and consistent with
/// Ferris-Prabhu's effective-area analysis [20] for square dies.
/// Returns 0 when the correction drives the estimate negative.
[[nodiscard]] long circumference_corrected(const wafer& w, const die& d);

/// Ferris-Prabhu effective-radius estimator [20]:
///     N = pi (R - s/2)^2 / A,   s = sqrt(A)
/// Treats each die as if its center must lie at least half a die-edge away
/// from the wafer rim.  Slightly optimistic for large dies.
[[nodiscard]] long ferris_prabhu(const wafer& w, const die& d);

/// Result of the exact placement search (see exact_count).
struct placement_result {
    long count = 0;        ///< best whole-die count over searched offsets
    double offset_x = 0.0; ///< grid offset in mm that achieved it
    double offset_y = 0.0;
    /// Per-row die counts for the winning placement (bottom to top).
    std::vector<long> row_counts;
};

/// Exhaustive grid-offset search: places a rectangular grid of dies (with
/// optional scribe/kerf spacing) at `offsets_per_axis`^2 sub-die-pitch
/// offsets and keeps the placement maximizing whole dies inside the usable
/// radius.  This is the ground truth the closed forms are judged against.
/// Throws std::domain_error when the search would exceed 2^26 cell tests
/// (grid cells x offsets^2).
[[nodiscard]] placement_result exact_count(
    const wafer& w, const die& d,
    millimeters scribe = millimeters{0.0},
    int offsets_per_axis = 8);

/// Names for reporting which estimator produced a figure.
enum class gross_die_method {
    maly_rows,              ///< Eq. (4) row formula (paper default)
    maly_rows_best_orient,  ///< Eq. (4), best of two orientations
    area_ratio,             ///< area upper bound
    circumference,          ///< first-order edge correction
    ferris_prabhu,          ///< effective-radius form [20]
    exact,                  ///< offset-searched placement
};

/// Dispatch on method; `scribe` only affects gross_die_method::exact.
[[nodiscard]] long gross_dies(const wafer& w, const die& d,
                              gross_die_method method,
                              millimeters scribe = millimeters{0.0});

/// Human-readable method name for tables/benches.
[[nodiscard]] std::string to_string(gross_die_method method);

}  // namespace silicon::geometry
