// sweep.hpp — parameter sweep helpers.
//
// Every figure reproduction is a sweep of a model over a parameter grid;
// these helpers generate the grids and evaluate callables into series.
//
// Sweeps and grid evaluations run on the exec engine: points are
// chunk-sharded, each point's value is written into its index-addressed
// slot, and the output ordering is fixed by construction — so results
// are identical for every `parallelism` value (0 = hardware concurrency,
// 1 = serial).  The callable is invoked concurrently when parallelism
// > 1 and must therefore be thread-safe (pure functions of their
// arguments, as all model evaluations in this library are).

#pragma once

#include "analysis/series.hpp"

#include <functional>
#include <vector>

namespace silicon::analysis {

/// `count` evenly spaced values from `first` to `last` inclusive
/// (count >= 2, or a single value when count == 1 and first == last).
[[nodiscard]] std::vector<double> linspace(double first, double last,
                                           int count);

/// `count` logarithmically spaced values from `first` to `last` inclusive;
/// both endpoints must be positive.
[[nodiscard]] std::vector<double> logspace(double first, double last,
                                           int count);

/// Evaluate f over xs into a named series (f must be thread-safe when
/// parallelism != 1; see the header comment).
[[nodiscard]] series sweep(std::string name, const std::vector<double>& xs,
                           const std::function<double(double)>& f,
                           unsigned parallelism = 0);

/// A rectangular grid evaluation z(x, y): used by the Fig. 8 contour map.
struct grid {
    std::vector<double> xs;             ///< column coordinates
    std::vector<double> ys;             ///< row coordinates
    std::vector<double> values;         ///< row-major: values[j*xs.size()+i]

    [[nodiscard]] double at(std::size_t i, std::size_t j) const {
        return values.at(j * xs.size() + i);
    }
    [[nodiscard]] double min_value() const;
    [[nodiscard]] double max_value() const;

    /// Evaluate f over the cartesian product xs x ys (f must be
    /// thread-safe when parallelism != 1; see the header comment).
    [[nodiscard]] static grid evaluate(
        const std::vector<double>& xs, const std::vector<double>& ys,
        const std::function<double(double, double)>& f,
        unsigned parallelism = 0);
};

/// Evaluate f over the cartesian product xs x ys — alias of
/// grid::evaluate, kept for the established call sites.
[[nodiscard]] grid evaluate_grid(
    const std::vector<double>& xs, const std::vector<double>& ys,
    const std::function<double(double, double)>& f,
    unsigned parallelism = 0);

}  // namespace silicon::analysis
