#include "serve/request.hpp"

#include <string>
#include <utility>

namespace silicon::serve {

std::string_view to_string(op_code op) {
    switch (op) {
        case op_code::cost_tr: return "cost_tr";
        case op_code::gross_die: return "gross_die";
        case op_code::yield: return "yield";
        case op_code::scenario1: return "scenario1";
        case op_code::scenario2: return "scenario2";
        case op_code::table3: return "table3";
        case op_code::mc_yield: return "mc_yield";
        case op_code::sweep: return "sweep";
        case op_code::stats: return "stats";
        case op_code::chiplet: return "chiplet";
        case op_code::partition_explore: return "partition_explore";
    }
    return "unknown";
}

std::optional<op_code> op_from_string(std::string_view name) {
    for (int i = 0; i < op_count; ++i) {
        const op_code op = static_cast<op_code>(i);
        if (to_string(op) == name) {
            return op;
        }
    }
    return std::nullopt;
}

const char* primary_metric(op_code op) {
    switch (op) {
        case op_code::cost_tr: return "cost_per_transistor_usd";
        case op_code::gross_die: return "count";
        case op_code::yield: return "yield";
        case op_code::scenario1: return "cost_per_transistor_usd";
        case op_code::scenario2: return "cost_per_transistor_usd";
        case op_code::mc_yield: return "yield";
        case op_code::chiplet: return "cost_per_good_system_usd";
        case op_code::table3:
        case op_code::sweep:
        case op_code::stats:
        case op_code::partition_explore:
            return nullptr;
    }
    return nullptr;
}

namespace {

// ---------------------------------------------------------------------------
// Parameter block serializers
// ---------------------------------------------------------------------------

json::value yield_spec_to_json(const yield_spec_params& y) {
    json::object o;
    switch (y.model) {
        case yield_spec_params::kind::reference:
            o.set("model", "reference");
            break;
        case yield_spec_params::kind::scaled:
            o.set("model", "scaled");
            break;
        case yield_spec_params::kind::fixed:
            o.set("model", "fixed");
            break;
    }
    o.set("y0", y.y0);
    o.set("a0_cm2", y.a0_cm2);
    o.set("d", y.d);
    o.set("p", y.p);
    o.set("fixed", y.fixed);
    return json::value{std::move(o)};
}

json::value process_to_json(const process_params& p) {
    json::object o;
    o.set("c0_usd", p.c0_usd);
    o.set("x", p.x);
    o.set("generation_step_um", p.generation_step_um);
    o.set("wafer_radius_cm", p.wafer_radius_cm);
    o.set("edge_exclusion_cm", p.edge_exclusion_cm);
    o.set("gross_die_method", p.gross_die_method);
    o.set("yield", yield_spec_to_json(p.yield));
    return json::value{std::move(o)};
}

json::value product_to_json(const product_params& p) {
    json::object o;
    o.set("name", p.name);
    o.set("transistors", p.transistors);
    o.set("design_density", p.design_density);
    o.set("feature_size_um", p.feature_size_um);
    o.set("die_aspect_ratio", p.die_aspect_ratio);
    return json::value{std::move(o)};
}

json::value economics_to_json(const economics_params& e) {
    json::object o;
    o.set("overhead_usd", e.overhead_usd);
    o.set("volume_wafers", e.volume_wafers);
    return json::value{std::move(o)};
}

// ---------------------------------------------------------------------------
// Payload serializers (fields appended onto the top-level object)
// ---------------------------------------------------------------------------

void cost_tr_to_json(const cost_tr_request& q, json::object& o) {
    o.set("process", process_to_json(q.process));
    o.set("product", product_to_json(q.product));
    o.set("economics", economics_to_json(q.economics));
}

void gross_die_to_json(const gross_die_request& q, json::object& o) {
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("edge_exclusion_cm", q.edge_exclusion_cm);
    o.set("die_width_mm", q.die_width_mm);
    o.set("die_height_mm", q.die_height_mm);
    o.set("method", q.method);
    o.set("scribe_mm", q.scribe_mm);
}

void yield_to_json(const yield_request& q, json::object& o) {
    o.set("model", q.model);
    o.set("expected_faults", q.expected_faults);
    o.set("die_area_cm2", q.die_area_cm2);
    o.set("defects_per_cm2", q.defects_per_cm2);
    o.set("critical_steps", q.critical_steps);
    o.set("alpha", q.alpha);
    o.set("d", q.d);
    o.set("p", q.p);
    o.set("lambda_um", q.lambda_um);
    o.set("y0", q.y0);
    o.set("a0_cm2", q.a0_cm2);
}

void scenario1_to_json(const scenario1_request& q, json::object& o) {
    o.set("lambda_um", q.lambda_um);
    o.set("c0_usd", q.c0_usd);
    o.set("x", q.x);
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("design_density", q.design_density);
}

void scenario2_to_json(const scenario2_request& q, json::object& o) {
    o.set("lambda_um", q.lambda_um);
    o.set("c0_usd", q.c0_usd);
    o.set("x", q.x);
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("design_density", q.design_density);
    o.set("y0", q.y0);
}

void table3_to_json(const table3_request& q, json::object& o) {
    o.set("row", q.row);
}

void mc_yield_to_json(const mc_yield_request& q, json::object& o) {
    o.set("line_width_um", q.line_width_um);
    o.set("line_spacing_um", q.line_spacing_um);
    o.set("line_length_um", q.line_length_um);
    o.set("line_count", q.line_count);
    o.set("defect_r0_um", q.defect_r0_um);
    o.set("defect_p", q.defect_p);
    o.set("defect_q", q.defect_q);
    o.set("dies", q.dies);
    o.set("defects_per_um2", q.defects_per_um2);
    o.set("extra_material_fraction", q.extra_material_fraction);
    o.set("seed", static_cast<double>(q.seed));
}

void sweep_to_json(const sweep_request& q, json::object& o) {
    o.set("target", json::value{q.target_params});
    o.set("param", q.param);
    o.set("from", q.from);
    o.set("to", q.to);
    o.set("count", q.count);
    o.set("scale", q.scale);
}

void chiplet_base_to_json(const chiplet_request& q, json::object& o) {
    o.set("logic_area_mm2", q.logic_area_mm2);
    o.set("memory_area_mm2", q.memory_area_mm2);
    o.set("io_area_mm2", q.io_area_mm2);
    o.set("d2d_area_mm2", q.d2d_area_mm2);
    o.set("lambda_um", q.lambda_um);
    o.set("c0_usd", q.c0_usd);
    o.set("x", q.x);
    o.set("generation_step_um", q.generation_step_um);
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("edge_exclusion_cm", q.edge_exclusion_cm);
    o.set("defects_per_cm2", q.defects_per_cm2);
    o.set("memory_defect_factor", q.memory_defect_factor);
    o.set("io_defect_factor", q.io_defect_factor);
    o.set("clustering_alpha", q.clustering_alpha);
    o.set("test_coverage", q.test_coverage);
    o.set("tester_rate_per_hour", q.tester_rate_per_hour);
    o.set("test_seconds_fixed", q.test_seconds_fixed);
    o.set("test_seconds_per_cm2", q.test_seconds_per_cm2);
    o.set("substrate", q.substrate);
    o.set("substrate_cost_per_cm2", q.substrate_cost_per_cm2);
    o.set("rdl_cost_per_cm2", q.rdl_cost_per_cm2);
    o.set("rdl_defects_per_cm2", q.rdl_defects_per_cm2);
    o.set("interposer_cost_per_cm2", q.interposer_cost_per_cm2);
    o.set("interposer_defects_per_cm2", q.interposer_defects_per_cm2);
    o.set("package_area_factor", q.package_area_factor);
    o.set("bond_yield", q.bond_yield);
    o.set("bonding_cost_per_chiplet", q.bonding_cost_per_chiplet);
}

void chiplet_to_json(const chiplet_request& q, json::object& o) {
    o.set("chiplets", q.chiplets);
    chiplet_base_to_json(q, o);
}

void partition_explore_to_json(const partition_explore_request& q,
                               json::object& o) {
    chiplet_base_to_json(q.base, o);
    o.set("splits", q.splits);
    o.set("area_from_mm2", q.area_from_mm2);
    o.set("area_to_mm2", q.area_to_mm2);
    o.set("count", q.count);
    o.set("scale", q.scale);
}

}  // namespace

json::value request_to_json(const request& r) {
    json::object o;
    o.set("op", std::string{to_string(r.op)});
    std::visit(
        [&o](const auto& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, cost_tr_request>) {
                cost_tr_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, gross_die_request>) {
                gross_die_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, yield_request>) {
                yield_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, scenario1_request>) {
                scenario1_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, scenario2_request>) {
                scenario2_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, table3_request>) {
                table3_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, mc_yield_request>) {
                mc_yield_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, sweep_request>) {
                sweep_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, chiplet_request>) {
                chiplet_to_json(payload, o);
            } else if constexpr (std::is_same_v<T,
                                                partition_explore_request>) {
                partition_explore_to_json(payload, o);
            }
            // stats_request: no parameters.
        },
        r.payload);
    return json::value{std::move(o)};
}

}  // namespace silicon::serve
