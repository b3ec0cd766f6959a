#include "analysis/sweep.hpp"

#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace silicon::analysis {

std::vector<double> linspace(double first, double last, int count) {
    if (count < 1) {
        throw std::invalid_argument("linspace: count must be >= 1");
    }
    if (count == 1) {
        if (first != last) {
            throw std::invalid_argument(
                "linspace: a single sample needs first == last");
        }
        return {first};
    }
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(count));
    const double step = (last - first) / (count - 1);
    for (int i = 0; i < count; ++i) {
        xs.push_back(i + 1 == count ? last : first + step * i);
    }
    return xs;
}

std::vector<double> logspace(double first, double last, int count) {
    if (!(first > 0.0) || !(last > 0.0)) {
        throw std::invalid_argument(
            "logspace: endpoints must be positive");
    }
    std::vector<double> xs =
        linspace(std::log(first), std::log(last), count);
    std::transform(xs.begin(), xs.end(), xs.begin(),
                   [](double v) { return std::exp(v); });
    if (!xs.empty()) {
        xs.front() = first;  // kill rounding on the endpoints
        xs.back() = last;
    }
    return xs;
}

series sweep(std::string name, const std::vector<double>& xs,
             const std::function<double(double)>& f,
             unsigned parallelism) {
    // Index-addressed slots keep the output ordering independent of
    // which thread evaluates which point.
    std::vector<double> ys(xs.size());
    exec::parallel_for(xs.size(), parallelism,
                       [&](const exec::shard_range& shard) {
                           for (std::size_t i = shard.begin;
                                i < shard.end; ++i) {
                               ys[i] = f(xs[i]);
                           }
                       });
    series s{std::move(name)};
    for (std::size_t i = 0; i < xs.size(); ++i) {
        s.add(xs[i], ys[i]);
    }
    return s;
}

double grid::min_value() const {
    if (values.empty()) {
        throw std::domain_error("grid: empty");
    }
    return *std::min_element(values.begin(), values.end());
}

double grid::max_value() const {
    if (values.empty()) {
        throw std::domain_error("grid: empty");
    }
    return *std::max_element(values.begin(), values.end());
}

grid grid::evaluate(const std::vector<double>& xs,
                    const std::vector<double>& ys,
                    const std::function<double(double, double)>& f,
                    unsigned parallelism) {
    if (xs.empty() || ys.empty()) {
        throw std::invalid_argument("grid::evaluate: empty axes");
    }
    grid g;
    g.xs = xs;
    g.ys = ys;
    g.values.assign(xs.size() * ys.size(), 0.0);
    const std::size_t nx = xs.size();
    exec::parallel_for(g.values.size(), parallelism,
                       [&](const exec::shard_range& shard) {
                           for (std::size_t idx = shard.begin;
                                idx < shard.end; ++idx) {
                               g.values[idx] =
                                   f(g.xs[idx % nx], g.ys[idx / nx]);
                           }
                       });
    return g;
}

grid evaluate_grid(const std::vector<double>& xs,
                   const std::vector<double>& ys,
                   const std::function<double(double, double)>& f,
                   unsigned parallelism) {
    return grid::evaluate(xs, ys, f, parallelism);
}

}  // namespace silicon::analysis
