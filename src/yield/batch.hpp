// batch.hpp — structure-of-arrays yield kernels for sweep evaluation.
//
// Each kernel takes contiguous parameter arrays and writes one output
// lane per point.  Two tiers share every signature shape:
//
//   * The exact kernels are plain loops over the scalar models
//     (poisson_model, ..., scaled_poisson_model, reference_die_yield):
//     each lane constructs and evaluates the model exactly as a direct
//     caller would, so a lane is bit-identical to the scalar result by
//     construction and the models' own guards decide which inputs are
//     invalid.  A lane whose model throws (negative fault count,
//     lambda <= 0, Y_0 outside (0,1], ...) is quiet NaN instead, which
//     serializes as JSON null (core/lanes.hpp).  Pinned by
//     tests/yield/test_batch.cpp.
//   * The *_fast kernels run the transcendentals on the dispatched
//     vector math (see below); the serve engine uses them for sweeps
//     only under engine_config::fast_math.
//
// Kernels never throw, and all are lane-independent: splitting [0, n)
// into sub-ranges and calling the kernel per range produces
// bit-identical output, so callers may shard them over
// exec::parallel_for at any thread count.

#pragma once

#include <cstddef>

namespace silicon::yield::batch {

/// Poisson yield exp(-faults) per lane (Eq. (5) family),
/// poisson_model{}.yield(f).  Lane i is NaN when
/// !(expected_faults[i] >= 0).
void poisson_yield(const double* expected_faults, double* out,
                   std::size_t n);

/// Murphy yield ((1 - e^-l)/l)^2 per lane, murphy_model{}.yield(l)
/// (small-l linearization included).  Lane i is NaN when
/// !(expected_faults[i] >= 0).
void murphy_yield(const double* expected_faults, double* out,
                  std::size_t n);

/// Seeds yield 1/(1 + l) per lane.  Lane i is NaN when
/// !(expected_faults[i] >= 0).
void seeds_yield(const double* expected_faults, double* out,
                 std::size_t n);

/// Bose-Einstein yield (1 + l/n)^-n per lane for a constant critical
/// step count, bose_einstein_model{n}.yield(l).  Every lane is NaN when
/// critical_steps < 1 — the model constructor's throw.
void bose_einstein_yield(const double* expected_faults, int critical_steps,
                         double* out, std::size_t n);

/// Negative-binomial yield (1 + l/a)^-a per lane with a per-lane
/// clustering parameter, negative_binomial_model{a}.yield(l).  Lane i
/// is NaN when !(alpha[i] > 0) or !(expected_faults[i] >= 0).
void negative_binomial_yield(const double* expected_faults,
                             const double* alpha, double* out,
                             std::size_t n);

/// Lambda-scaled Poisson yield (Eq. (7)): exp(-A * D / lambda^p) per
/// lane, scaled_poisson_model{d, p}.yield(square_centimeters{area},
/// microns{lambda}): lane NaN when !(d >= 0), !(p > 2), area is
/// negative/infinite/NaN, or lambda is not strictly positive and
/// finite.
void scaled_poisson_yield(const double* die_area_cm2,
                          const double* lambda_um, const double* d,
                          const double* p, double* out, std::size_t n);

/// Reference-die yield (Eq. (9)): Y_0^(A/A_0) per lane,
/// reference_die_yield{probability{y0}, square_centimeters{a0}}
/// .yield(square_centimeters{area}).  Lane NaN when y0 is not in
/// (0, 1], a0 is not strictly positive and finite, or area is
/// negative/infinite/NaN.
void reference_yield(const double* die_area_cm2, const double* y0,
                     const double* a0_cm2, double* out, std::size_t n);

// ---- fast_math variants --------------------------------------------
//
// Same signatures, same lane-validity classification (a lane is NaN
// for exactly the inputs that NaN the exact kernel above — pinned by
// tests/yield/test_batch_ulp.cpp), but the transcendentals go through
// the dispatched vector math in simd/math.hpp instead of libm, so the
// results are NOT bit-identical to the exact kernels: they agree to
// within the ULP bounds in DESIGN.md §15 (<= 4 ULP drift on
// well-conditioned lanes, <= 4 ULP against a long-double reference).
// Invalid lanes are masked to benign arguments *before* the
// transcendental, so guard lanes cannot perturb neighbours and always
// serialize as the same JSON null bytes as the scalar path.
//
// Like the exact kernels, every lane is computed independently (tails
// use the same vector math through a padded register), so sub-range
// calls compose bit-identically — fast_math sweeps stay deterministic
// across thread counts.  The engine only selects these when
// engine_config::fast_math is set.

/// Vector-path poisson_yield (same NaN classification).
void poisson_yield_fast(const double* expected_faults, double* out,
                        std::size_t n);

/// Vector-path murphy_yield.  The f < 1e-9 linearization branch is
/// bit-identical to the exact kernel (no transcendental there); the
/// main branch evaluates ((-expm1(-f))/f)^2, which is better
/// conditioned than the scalar (1 - exp(-f))/f form.
void murphy_yield_fast(const double* expected_faults, double* out,
                       std::size_t n);

/// seeds_yield has no transcendental: the "fast" path is the scalar
/// kernel itself (bit-identical on every target).
void seeds_yield_fast(const double* expected_faults, double* out,
                      std::size_t n);

/// Vector-path bose_einstein_yield (same NaN classification).
void bose_einstein_yield_fast(const double* expected_faults,
                              int critical_steps, double* out,
                              std::size_t n);

/// Vector-path negative_binomial_yield (same NaN classification).
void negative_binomial_yield_fast(const double* expected_faults,
                                  const double* alpha, double* out,
                                  std::size_t n);

/// Vector-path scaled_poisson_yield (same NaN classification).
void scaled_poisson_yield_fast(const double* die_area_cm2,
                               const double* lambda_um, const double* d,
                               const double* p, double* out, std::size_t n);

/// Vector-path reference_yield (same NaN classification).
void reference_yield_fast(const double* die_area_cm2, const double* y0,
                          const double* a0_cm2, double* out, std::size_t n);

}  // namespace silicon::yield::batch
