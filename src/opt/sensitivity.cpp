#include "opt/sensitivity.hpp"

#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>

namespace silicon::opt {

std::vector<elasticity> elasticities(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<parameter>& parameters, double rel_step,
    unsigned parallelism) {
    if (!(rel_step > 0.0 && rel_step < 0.5)) {
        throw std::invalid_argument(
            "elasticities: relative step must be in (0, 0.5)");
    }
    std::vector<double> values;
    values.reserve(parameters.size());
    for (const parameter& p : parameters) {
        values.push_back(p.value);
    }
    const double nominal = objective(values);
    if (!(nominal > 0.0)) {
        throw std::domain_error(
            "elasticities: objective must be positive at the nominal "
            "point");
    }

    // Probe list: parameters with a defined elasticity, in input order.
    std::vector<std::size_t> probes;
    probes.reserve(parameters.size());
    for (std::size_t i = 0; i < parameters.size(); ++i) {
        if (parameters[i].value != 0.0) {
            probes.push_back(i);
        }
    }

    // Each probe is independent: fan them across the shard
    // decomposition into index-addressed slots.  On failure the
    // lowest-index shard's exception is rethrown, which is the lowest
    // offending parameter — the same one the serial loop reports.
    std::vector<elasticity> rows(probes.size());
    std::vector<std::exception_ptr> failures(
        exec::shard_count_for(probes.size()));
    exec::parallel_for(
        probes.size(), parallelism, [&](const exec::shard_range& r) {
            try {
                for (std::size_t slot = r.begin; slot < r.end; ++slot) {
                    const std::size_t i = probes[slot];
                    std::vector<double> up = values;
                    std::vector<double> down = values;
                    up[i] = values[i] * (1.0 + rel_step);
                    down[i] = values[i] * (1.0 - rel_step);
                    const double f_up = objective(up);
                    const double f_down = objective(down);
                    if (!(f_up > 0.0) || !(f_down > 0.0)) {
                        throw std::domain_error(
                            "elasticities: objective must stay positive "
                            "at probe points for parameter '" +
                            parameters[i].name + "'");
                    }
                    elasticity row;
                    row.name = parameters[i].name;
                    row.nominal = parameters[i].value;
                    // d ln C / d ln theta by central difference in log
                    // space.
                    row.value =
                        (std::log(f_up) - std::log(f_down)) /
                        (std::log1p(rel_step) - std::log1p(-rel_step));
                    rows[slot] = std::move(row);
                }
            } catch (...) {
                failures[r.index] = std::current_exception();
            }
        });
    for (const std::exception_ptr& failure : failures) {
        if (failure) {
            std::rethrow_exception(failure);
        }
    }
    return rows;
}

std::vector<elasticity> ranked(std::vector<elasticity> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const elasticity& a, const elasticity& b) {
                  return std::abs(a.value) > std::abs(b.value);
              });
    return rows;
}

}  // namespace silicon::opt
