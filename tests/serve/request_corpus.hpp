// request_corpus.hpp — request lines shared by the serve test binaries:
// every endpoint shape, schema/parse/evaluation errors, nested sweep
// targets, ids of every JSON kind, trace ids and numeric edge values,
// plus a deterministic fuzz stream of scenario1/yield points.

#pragma once

#include "serve/json.hpp"

#include <cmath>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

namespace silicon::serve::test_corpus {

// ---------------------------------------------------------------------------
// Shared corpus: one entry per endpoint shape plus schema errors,
// shuffled key orders, string/object/array ids, unicode and numeric
// edge values.
// ---------------------------------------------------------------------------

inline std::vector<std::string> corpus() {
    return {
        // Every endpoint with defaults and with explicit parameters.
        R"({"op":"scenario1"})",
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"lambda_um":0.35,"op":"scenario1","c0_usd":800,"x":1.4})",
        R"({"op":"scenario1","id":17,"wafer_radius_cm":10,"design_density":42.5})",
        R"({"op":"scenario2"})",
        R"({"op":"scenario2","id":"s2","y0":0.9,"lambda_um":0.8})",
        R"({"op":"yield"})",
        R"({"op":"yield","model":"poisson","expected_faults":0.5})",
        R"({"op":"yield","model":"poisson","die_area_cm2":2.5,"defects_per_cm2":0.4})",
        R"({"op":"yield","model":"murphy","expected_faults":1.25})",
        R"({"op":"yield","model":"seeds","die_area_cm2":1.2})",
        R"({"op":"yield","model":"bose_einstein","critical_steps":12})",
        R"({"op":"yield","model":"neg_binomial","alpha":2.5,"expected_faults":3})",
        R"({"op":"yield","model":"scaled_poisson","d":1.72,"p":4.07,"lambda_um":0.8})",
        R"({"op":"yield","model":"reference","y0":0.7,"a0_cm2":1.0,"die_area_cm2":1.9})",
        R"({"op":"cost_tr"})",
        R"({"op":"cost_tr","product":{"name":"dram","transistors":4.2e6},)"
        R"("process":{"c0_usd":900,"x":1.3,"yield":{"model":"fixed","fixed":0.8}}})",
        R"({"op":"cost_tr","process":{"gross_die_method":"area_ratio"},)"
        R"("economics":{"overhead_usd":1e6,"volume_wafers":1e4}})",
        R"({"op":"gross_die"})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":9,)"
        R"("method":"ferris_prabhu","scribe_mm":0.1})",
        R"({"op":"table3"})",
        R"({"op":"table3","row":5})",
        R"({"op":"mc_yield","dies":64,"seed":7})",
        R"({"op":"chiplet"})",
        R"({"op":"chiplet","chiplets":4,"substrate":"interposer",)"
        R"("d2d_area_mm2":8,"bond_yield":0.995})",
        R"({"chiplets":2,"op":"chiplet","logic_area_mm2":200,)"
        R"("test_coverage":0.9,"id":"kgd"})",
        R"({"op":"partition_explore"})",
        R"({"op":"partition_explore","splits":"1,2,4,8","count":9,)"
        R"("scale":"log","area_from_mm2":30,"area_to_mm2":1500})",
        R"({"op":"stats"})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":4,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"y0","from":0.2,"to":0.9,"count":3,)"
        R"("scale":"log","target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"process.c0_usd","from":100,"to":1000,)"
        R"("count":3,"target":{"op":"cost_tr"}})",
        // trace_id: echoed on success and error envelopes, rejected
        // when non-string, banned inside sweep targets.
        R"({"op":"scenario1","trace_id":"t-1"})",
        R"({"trace_id":"req-é☃","op":"yield","model":"murphy"})",
        R"({"id":3,"trace_id":"say \"hi\"","op":"table3","row":1})",
        R"({"op":"scenario1","trace_id":42})",
        R"({"op":"scenario1","trace_id":null})",
        R"({"op":"nope","trace_id":"t-err"})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":3,"target":{"op":"scenario1","trace_id":"x"}})",
        // ids of every JSON kind; keys out of order.
        R"({"id":null,"op":"scenario1"})",
        R"({"id":true,"op":"scenario1"})",
        R"({"id":-12.75,"op":"scenario1"})",
        R"({"id":"req-é☃","op":"scenario1"})",
        R"({"id":[1,"two",{"three":3}],"op":"scenario1"})",
        R"({"id":{"trace":"abc","span":9},"op":"scenario1"})",
        // Numeric edge values.
        R"({"op":"scenario1","lambda_um":1e-300})",
        R"({"op":"scenario1","lambda_um":5e-324})",
        R"({"op":"scenario1","c0_usd":1.7976931348623157e308})",
        R"({"op":"yield","expected_faults":-0.0})",
        // Schema errors (messages must match byte for byte).
        R"({"op":"nope"})",
        R"({"op":42})",
        R"({})",
        R"(17)",
        R"([1,2,3])",
        R"({"op":"scenario1","lambda_um":"half"})",
        R"({"op":"scenario1","bogus":1})",
        R"({"op":"yield","model":"voodoo"})",
        R"({"op":"gross_die","method":"voodoo"})",
        R"({"op":"table3","row":99})",
        R"({"op":"table3","row":2.5})",
        R"({"op":"mc_yield","dies":0})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,"count":0,)"
        R"("target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"nope","target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","scale":"cubic",)"
        R"("target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","target":{"op":"scenario1",)"
        R"("lambda_um":"x"}})",
        // Sweeps nested as sweep targets: the target's own error first,
        // then the outer "no sweepable scalar metric".
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1,)"
        R"("target":{"op":"sweep"}})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1,)"
        R"("target":{"op":"sweep","param":"lambda_um","from":0.5,"to":1,)"
        R"("target":{"op":"scenario1","bogus":1}}})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1,"id":4,)"
        R"("target":{"op":"sweep","param":"lambda_um","from":0.5,"to":1,)"
        R"("target":{"op":"scenario1"}}})",
        R"({"op":"chiplet","chiplets":0})",
        R"({"op":"chiplet","chiplets":2.5})",
        R"({"op":"chiplet","substrate":"glass"})",
        R"({"op":"chiplet","bogus":1})",
        R"({"op":"partition_explore","splits":"4,2,1"})",
        R"({"op":"partition_explore","splits":"2,4"})",
        R"({"op":"partition_explore","splits":"1,02"})",
        R"({"op":"partition_explore","splits":"1,17"})",
        R"({"op":"partition_explore","count":0})",
        R"({"op":"partition_explore","scale":"cubic"})",
        R"({"op":"partition_explore","area_from_mm2":-5})",
        // Parse errors.
        R"({"op":"scenario1")",
        R"({"op":"scenario1",})",
        R"({"op":"scenario1","lambda_um":01})",
        R"({"op" "scenario1"})",
        R"({"op":"scenario1"} trailing)",
        R"({"a":1,"a":2,"op":"scenario1"})",
        "",
        "   ",
        // Evaluation errors (parse fine, evaluate throws).
        R"({"op":"scenario1","lambda_um":0})",
        R"({"op":"scenario2","y0":0})",
        R"({"op":"gross_die","die_width_mm":1000})",
        R"({"op":"cost_tr","process":{"wafer_radius_cm":0}})",
        R"({"op":"chiplet","logic_area_mm2":90000})",
        R"({"op":"chiplet","clustering_alpha":-1})",
    };
}

/// Deterministic pseudo-random request lines: scenario1/yield with
/// randomized values (including negatives and huge magnitudes) and
/// randomized key presence.
inline std::vector<std::string> fuzz_corpus(std::size_t count) {
    std::mt19937_64 rng{0x5eedu};
    std::uniform_real_distribution<double> uni{-2.0, 2.0};
    std::vector<std::string> lines;
    lines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double magnitude =
            std::pow(10.0, static_cast<double>(rng() % 13) - 6.0);
        std::string line = "{\"op\":";
        if (rng() % 2 == 0) {
            line += "\"scenario1\"";
            if (rng() % 2 == 0) {
                line += ",\"lambda_um\":" +
                        json::format_number(uni(rng) * magnitude);
            }
            if (rng() % 2 == 0) {
                line += ",\"c0_usd\":" +
                        json::format_number(uni(rng) * magnitude);
            }
            if (rng() % 3 == 0) {
                line += ",\"x\":" + json::format_number(
                                        1.0 + uni(rng) * 0.5);
            }
        } else {
            line += "\"yield\"";
            const char* models[] = {"poisson",        "murphy",
                                    "seeds",          "bose_einstein",
                                    "neg_binomial",   "scaled_poisson",
                                    "reference"};
            line += ",\"model\":\"";
            line += models[rng() % 7];
            line += "\"";
            if (rng() % 2 == 0) {
                line += ",\"expected_faults\":" +
                        json::format_number(uni(rng) * magnitude);
            }
            if (rng() % 2 == 0) {
                line += ",\"die_area_cm2\":" +
                        json::format_number(uni(rng) * magnitude);
            }
        }
        if (rng() % 3 == 0) {
            line += ",\"id\":" + std::to_string(rng() % 100000);
        }
        line += "}";
        lines.push_back(std::move(line));
    }
    return lines;
}

}  // namespace silicon::serve::test_corpus
