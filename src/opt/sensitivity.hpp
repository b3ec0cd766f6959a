// sensitivity.hpp — parameter sensitivity / elasticity analysis.
//
// "Demonstrate the complexity of the IC manufacturing cost problem"
// (Sec. III) invites the obvious follow-up: which inputs move the answer
// most?  This module computes elasticities
//
//     E_theta = d ln C / d ln theta        (central finite differences)
//
// for a cost functional against a named parameter set, so benches and
// examples can print "a 1% increase in X raises C_tr by E%" rows.

#pragma once

#include <functional>
#include <string>
#include <vector>

namespace silicon::opt {

/// A named parameter with its nominal value.
struct parameter {
    std::string name;
    double value = 0.0;
};

/// Elasticity of the objective against one parameter.
struct elasticity {
    std::string name;
    double value = 0.0;       ///< d ln C / d ln theta at the nominal point
    double nominal = 0.0;     ///< parameter value used
};

/// Compute elasticities of `objective` (called with the full parameter
/// vector) for every parameter, using central differences with relative
/// step `rel_step`.  Parameters with value 0 are skipped (elasticity is
/// undefined there).  The objective must be positive at the nominal point
/// and at the probe points; throws std::domain_error otherwise.
///
/// `parallelism` fans the per-parameter probes across the exec engine
/// (0 = hardware concurrency, 1 = serial).  The objective must be pure
/// and thread-safe; rows — and which parameter's error propagates on
/// failure — are identical at every parallelism value.
[[nodiscard]] std::vector<elasticity> elasticities(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<parameter>& parameters, double rel_step = 1e-4,
    unsigned parallelism = 1);

/// Sort a copy of the rows by |value| descending — "what matters most".
[[nodiscard]] std::vector<elasticity> ranked(std::vector<elasticity> rows);

}  // namespace silicon::opt
