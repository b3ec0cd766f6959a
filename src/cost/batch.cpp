#include "cost/batch.hpp"

#include "core/lanes.hpp"
#include "cost/wafer_cost.hpp"

namespace silicon::cost::batch {

void pure_wafer_cost(const double* c0_usd, const double* x,
                     const double* lambda_um, double generation_step_um,
                     double* out, std::size_t n) {
    core::eval_lanes(out, n, [&](std::size_t i) {
        return wafer_cost_model{dollars{c0_usd[i]}, x[i],
                                microns{generation_step_um}}
            .pure_wafer_cost(microns{lambda_um[i]})
            .value();
    });
}

// scenario1/2_cost_per_transistor loop over core::scenario1/2, which
// sit above this library; they are defined in core/scenario.cpp.

}  // namespace silicon::cost::batch
