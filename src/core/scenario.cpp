#include "core/scenario.hpp"

#include "core/lanes.hpp"
#include "cost/batch.hpp"
#include "tech/roadmap.hpp"

#include <cmath>
#include <stdexcept>

namespace silicon::core {

dollars scenario1::cost_per_transistor(microns lambda) const {
    if (!(lambda.value() > 0.0)) {
        throw std::invalid_argument("scenario1: lambda must be positive");
    }
    const dollars cw = wafer_cost.pure_wafer_cost(lambda);
    // Transistors per wafer: A_w / (d_d lambda^2); areas in um^2
    // (1 cm^2 = 1e8 um^2).
    const double wafer_um2 = wafer.area().value() * 1e8;
    const double area_per_transistor_um2 =
        design_density * lambda.value() * lambda.value();
    return dollars{cw.value() * area_per_transistor_um2 / wafer_um2};
}

square_centimeters scenario2::die_area(microns lambda) const {
    return tech::microprocessor_die_area(lambda);
}

double scenario2::transistors(microns lambda) const {
    const double area_um2 = die_area(lambda).value() * 1e8;
    return area_um2 /
           (design_density * lambda.value() * lambda.value());
}

dollars scenario2::cost_per_transistor(microns lambda) const {
    if (!(lambda.value() > 0.0)) {
        throw std::invalid_argument("scenario2: lambda must be positive");
    }
    const dollars cw = wafer_cost.pure_wafer_cost(lambda);
    const double wafer_um2 = wafer.area().value() * 1e8;
    const double area_per_transistor_um2 =
        design_density * lambda.value() * lambda.value();
    const probability y = yield.yield(die_area(lambda));
    if (y.value() <= 0.0) {
        throw std::domain_error("scenario2: yield underflowed to zero");
    }
    return dollars{cw.value() * area_per_transistor_um2 /
                   (wafer_um2 * y.value())};
}

}  // namespace silicon::core

// The Eq. (8)/(9) kernels declared in cost/batch.hpp: one scenario
// evaluation per lane, built the way the serve scenario1/scenario2
// endpoints build theirs.
namespace silicon::cost::batch {

namespace {

template <typename Scenario>
Scenario lane_scenario(const scenario_columns& in, std::size_t i) {
    Scenario s;
    s.wafer_cost = wafer_cost_model{dollars{in.c0_usd[i]}, in.x[i]};
    s.wafer = geometry::wafer{centimeters{in.wafer_radius_cm[i]}};
    s.design_density = in.design_density[i];
    return s;
}

}  // namespace

void scenario1_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n) {
    core::eval_lanes(out, n, [&](std::size_t i) {
        return lane_scenario<core::scenario1>(in, i)
            .cost_per_transistor(microns{in.lambda_um[i]})
            .value();
    });
}

void scenario2_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n) {
    core::eval_lanes(out, n, [&](std::size_t i) {
        auto s = lane_scenario<core::scenario2>(in, i);
        s.yield = yield::reference_die_yield{probability{in.y0[i]}};
        return s.cost_per_transistor(microns{in.lambda_um[i]}).value();
    });
}

}  // namespace silicon::cost::batch
