#include "yield/batch.hpp"

#include "core/lanes.hpp"
#include "yield/models.hpp"
#include "yield/scaled.hpp"

namespace silicon::yield::batch {

using core::eval_lanes;

void poisson_yield(const double* expected_faults, double* out,
                   std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return poisson_model{}.yield(expected_faults[i]).value();
    });
}

void murphy_yield(const double* expected_faults, double* out,
                  std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return murphy_model{}.yield(expected_faults[i]).value();
    });
}

void seeds_yield(const double* expected_faults, double* out,
                 std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return seeds_model{}.yield(expected_faults[i]).value();
    });
}

void bose_einstein_yield(const double* expected_faults, int critical_steps,
                         double* out, std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return bose_einstein_model{critical_steps}
            .yield(expected_faults[i])
            .value();
    });
}

void negative_binomial_yield(const double* expected_faults,
                             const double* alpha, double* out,
                             std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return negative_binomial_model{alpha[i]}
            .yield(expected_faults[i])
            .value();
    });
}

void scaled_poisson_yield(const double* die_area_cm2,
                          const double* lambda_um, const double* d,
                          const double* p, double* out, std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return scaled_poisson_model{d[i], p[i]}
            .yield(square_centimeters{die_area_cm2[i]},
                   microns{lambda_um[i]})
            .value();
    });
}

void reference_yield(const double* die_area_cm2, const double* y0,
                     const double* a0_cm2, double* out, std::size_t n) {
    eval_lanes(out, n, [&](std::size_t i) {
        return reference_die_yield{probability{y0[i]},
                                   square_centimeters{a0_cm2[i]}}
            .yield(square_centimeters{die_area_cm2[i]})
            .value();
    });
}

}  // namespace silicon::yield::batch
