// lanes.hpp — the lane rule shared by the exact SoA batch kernels.
//
// The exact kernels in yield/batch.hpp and cost/batch.hpp are loops over
// the scalar models: each lane constructs and evaluates the model the
// way a direct caller would, so the model's own guards decide which
// inputs are invalid and the lane is bit-identical to the scalar result.
// A lane whose model throws becomes quiet NaN (serialized as JSON null).

#pragma once

#include <cstddef>
#include <limits>

namespace silicon::core {

/// out[i] = lane(i) for every i in [0, n); a lane whose evaluation throws
/// is quiet NaN.  Never throws.
template <typename Lane>
void eval_lanes(double* out, std::size_t n, Lane&& lane) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        try {
            out[i] = lane(i);
        } catch (...) {
            out[i] = std::numeric_limits<double>::quiet_NaN();
        }
    }
}

}  // namespace silicon::core
